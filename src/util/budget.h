// Bounded-compute contract for the partitioning pipelines.
//
// A ComputeBudget caps a run by wall-clock deadline and/or a global
// iteration count. Stages that loop (Lanczos, the MELO greedy, FM passes)
// poll the budget and, when it is exhausted, stop refining and return the
// best *valid* result built so far — never a partial/invalid one. The
// default-constructed budget is unlimited and costs one predictable branch
// per poll.
//
// The budget is shared mutable state for one pipeline run: pass a pointer
// to the same instance into every stage (nullptr = unlimited everywhere).
#pragma once

#include <chrono>
#include <cstddef>

namespace specpart {

class ComputeBudget {
 public:
  /// Unlimited budget.
  ComputeBudget() = default;

  /// Budget limited by a wall-clock deadline measured from construction
  /// (or the last restart()). `seconds <= 0` is an already-expired budget:
  /// every stage degrades to its cheapest valid behavior.
  static ComputeBudget with_deadline(double seconds) {
    ComputeBudget b;
    b.deadline_seconds_ = seconds;
    b.restart();
    return b;
  }

  /// Budget limited by a total iteration count shared across stages (one
  /// Lanczos iteration, one greedy selection and one FM move each cost 1).
  static ComputeBudget with_max_iterations(std::size_t iterations) {
    ComputeBudget b;
    b.max_iterations_ = iterations;
    b.limited_iterations_ = true;
    b.restart();
    return b;
  }

  /// Re-stamps the deadline clock and clears the consumed-iteration count.
  void restart() {
    start_ = Clock::now();
    iterations_used_ = 0;
  }

  bool unlimited() const {
    return deadline_seconds_ < 0.0 && !limited_iterations_;
  }

  /// Consumes `cost` iterations and reports whether work may continue.
  /// Deadline is checked as well, so a polling loop only needs charge().
  bool charge(std::size_t cost = 1) {
    iterations_used_ += cost;
    return !exhausted();
  }

  bool exhausted() const {
    if (limited_iterations_ && iterations_used_ >= max_iterations_)
      return true;
    if (deadline_seconds_ >= 0.0 && elapsed_seconds() >= deadline_seconds_)
      return true;
    return false;
  }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
  double deadline_seconds_ = -1.0;  // < 0 = no deadline
  std::size_t max_iterations_ = 0;
  bool limited_iterations_ = false;
  std::size_t iterations_used_ = 0;
};

/// Budget poll that tolerates a null budget (the common "unlimited" case).
inline bool budget_ok(ComputeBudget* budget) {
  return budget == nullptr || !budget->exhausted();
}

/// Charges `cost` against a possibly-null budget; true = keep going.
inline bool budget_charge(ComputeBudget* budget, std::size_t cost = 1) {
  return budget == nullptr || budget->charge(cost);
}

}  // namespace specpart
