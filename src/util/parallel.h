// Shared parallel compute-kernel layer: a small reusable thread pool plus
// deterministic parallel_for / parallel_reduce utilities.
//
// Every hot path in the library (the MELO snapshot dots, Lanczos SpMV and
// reorthogonalization panels, the k-means assignment step, the DP-RP table
// fill) funnels through these two primitives. Two contracts matter more
// than raw speed:
//
//  1. *Fixed-block determinism.* A range [begin, end) is always split into
//     the same blocks — block boundaries depend only on the range length
//     and the grain, never on the thread count — and parallel_reduce
//     combines block partials in ascending block order on the calling
//     thread. Floating-point reductions therefore produce bit-identical
//     results for 1, 2 or 64 threads; only the wall-clock changes.
//
//  2. *Serial reference.* ParallelConfig{.num_threads = 1} is the default
//     everywhere. Call sites keep their original serial loops on that path
//     (byte-identical to the pre-parallel implementation) and switch to the
//     blocked kernels only when more than one thread is requested.
//
// The pool is a lazily-created process-wide singleton; workers sleep on a
// condition variable between jobs, and the calling thread always
// participates in draining blocks, so a 1-block job never pays a wake-up.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace specpart {

/// Thread-count knob threaded through the pipeline option structs
/// (MeloOrderingOptions, LanczosOptions, KmeansOptions, DprpOptions, ...).
struct ParallelConfig {
  /// Worker threads to use (including the calling thread).
  ///   1 = serial reference path (the default; byte-identical to the seed
  ///       implementation), 0 = auto: $SPECPART_THREADS if set, otherwise
  ///       std::thread::hardware_concurrency().
  std::size_t num_threads = 1;
  /// Minimum elements per reduction block. Part of the determinism
  /// contract: changing the grain changes block boundaries and hence may
  /// change floating-point rounding, changing the thread count never does.
  std::size_t grain = 1024;

  /// Resolved thread count (>= 1); see num_threads.
  std::size_t threads() const;

  bool serial() const { return threads() <= 1; }

  /// Convenience constructor for "n threads, default grain".
  static ParallelConfig with_threads(std::size_t n) {
    ParallelConfig cfg;
    cfg.num_threads = n;
    return cfg;
  }
};

/// $SPECPART_THREADS as a count (0 when unset/unparsable). The CI uses this
/// to pin the equivalence tests to a >1 thread count.
std::size_t env_threads();

/// Process-wide worker pool. Grows lazily to the largest thread count ever
/// requested (capped); one job runs at a time. Not intended for direct use —
/// go through parallel_for / parallel_reduce.
class ThreadPool {
 public:
  static ThreadPool& instance();

  /// Runs fn(b) for every b in [0, num_blocks) using up to `num_threads`
  /// threads including the caller, then returns. Which thread runs which
  /// block is unspecified (atomic work-stealing counter) — callers must
  /// make per-block work independent and combine results by block index.
  /// Re-entrant calls from inside a worker run inline on the caller.
  void run_blocks(std::size_t num_blocks, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn);

  ~ThreadPool();

 private:
  ThreadPool();

  struct Impl;  // keeps <thread>/<mutex> out of this widely-included header
  std::unique_ptr<Impl> impl_;
};

namespace detail {

inline std::size_t block_grain(std::size_t n, std::size_t grain) {
  (void)n;
  return grain == 0 ? 1 : grain;
}

/// Number of fixed blocks for a range of n elements. Depends only on n and
/// grain — never on the thread count.
inline std::size_t num_blocks(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  const std::size_t g = block_grain(n, grain);
  return (n + g - 1) / g;
}

}  // namespace detail

/// Runs body(lo, hi) over [begin, end) split into fixed grain-sized blocks,
/// in parallel when cfg asks for more than one thread. body must treat
/// blocks as independent (no ordering between them, disjoint writes).
template <class Body>
void parallel_for(const ParallelConfig& cfg, std::size_t begin,
                  std::size_t end, Body&& body) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  const std::size_t g = detail::block_grain(n, cfg.grain);
  const std::size_t blocks = detail::num_blocks(n, cfg.grain);
  const std::size_t threads = std::min(cfg.threads(), blocks);
  if (threads <= 1) {
    body(begin, end);
    return;
  }
  ThreadPool::instance().run_blocks(blocks, threads, [&](std::size_t b) {
    const std::size_t lo = begin + b * g;
    const std::size_t hi = std::min(end, lo + g);
    body(lo, hi);
  });
}

/// Deterministic reduction: block_fn(lo, hi) -> T computes one fixed
/// block's partial, and partials are folded as
///   acc = combine(std::move(acc), partial_0); acc = combine(..., 1); ...
/// in ascending block order on the calling thread. Because the blocks and
/// the fold order are independent of the thread count, the result is
/// bit-identical for any cfg.num_threads — including 1, where the blocks
/// are simply evaluated inline in order.
template <class T, class BlockFn, class Combine>
T parallel_reduce(const ParallelConfig& cfg, std::size_t begin,
                  std::size_t end, T init, BlockFn&& block_fn,
                  Combine&& combine) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return init;
  const std::size_t g = detail::block_grain(n, cfg.grain);
  const std::size_t blocks = detail::num_blocks(n, cfg.grain);
  if (blocks == 1) return combine(std::move(init), block_fn(begin, end));

  std::vector<T> partials(blocks);
  const std::size_t threads = std::min(cfg.threads(), blocks);
  auto run_block = [&](std::size_t b) {
    const std::size_t lo = begin + b * g;
    const std::size_t hi = std::min(end, lo + g);
    partials[b] = block_fn(lo, hi);
  };
  if (threads <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) run_block(b);
  } else {
    ThreadPool::instance().run_blocks(blocks, threads, run_block);
  }
  T acc = std::move(init);
  for (std::size_t b = 0; b < blocks; ++b)
    acc = combine(std::move(acc), std::move(partials[b]));
  return acc;
}

}  // namespace specpart
