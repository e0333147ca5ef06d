// Wall-clock timing helper used by the experiment harness (Table 5 reports
// ordering-construction runtimes).
#pragma once

#include <chrono>

namespace specpart {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace specpart
