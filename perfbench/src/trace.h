// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call into a layer's public entry point; its name is
// "<layer>.<operation>" (service.parse, spectral.eigensolve, ...). Spans
// nest through a per-thread stack, so each records the span that caused
// it, and every span of one request carries that request's id. Spans stay
// in memory while the run measures and are written out when it ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// "<layer>.<operation>"; always a string literal.
  const char* name = "";
  std::uint32_t request = 0;
  /// Index of the enclosing span in the same buffer, -1 for a root.
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  /// Text before the first '.' of the name.
  std::string layer() const;
};

/// Monotonic nanoseconds.
std::int64_t now_ns();

/// Span buffer of one client thread (not thread-safe).
class Tracer {
 public:
  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes the scope free, so traced code also runs untraced.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Tags every span opened from now on with `request`.
  void set_request(std::uint32_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t request_ = 0;
};

/// Concatenates per-thread buffers, re-basing parent indices.
std::vector<Span> merge(const std::vector<const Tracer*>& tracers);

/// Self time of every span: its duration minus its direct children's.
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// One JSON object per line: request, name, parent, start_ns, end_ns.
/// False when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
