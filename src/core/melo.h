// MELO — Multiple-Eigenvector Linear Ordering (the paper's heuristic).
//
// Instead of solving the (NP-hard) vector partitioning problem directly,
// MELO converts it into a vertex ordering: starting from an empty subset S,
// it repeatedly appends the vector that maximizes a weighting function of
// the growing subset-sum vector ~S = sum_{y in S} y. Because every vector
// carries *global* partitioning information (it is built from d
// eigenvectors), the ordering is qualitatively different from a local graph
// traversal — and splitting it recovers high-quality partitionings.
//
// The greedy's selection rule (how "best next vector" is scored) is a
// design knob separate from the paper's weighting schemes (which scale the
// vector coordinates, see reduction.h):
//   kMagnitude   max ||S + y||^2      — the max-sum objective, greedily
//   kProjection  max S.y              — growth along the subset direction
//   kCosine      max S.y / ||y||      — direction only, magnitude-blind
// (Normalizations that are constant across candidates at a fixed step —
// e.g. dividing by |S|+1 or by ||S|| — do not change the argmax and are
// deliberately not separate rules.)
//
// The exact greedy is O(d n^2) in the worst case, but it evaluates a key
// only where a certified upper bound from the last snapshot says it could
// still win (ALGORITHMS.md §2): the orderings are those of a full scan,
// bit for bit, at a few percent of its key evaluations on typical
// instances. This takes the place of the paper's heuristic speedup
// (periodic re-ranking of the remaining vectors), which changed the
// ordering and was no faster.
#pragma once

#include <cstdint>
#include <functional>

#include "core/vecpart.h"
#include "part/ordering.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace specpart::core {

enum class SelectionRule {
  kMagnitude = 1,
  kProjection = 2,
  kCosine = 3,
};

const char* selection_rule_name(SelectionRule s);

struct MeloOrderingOptions {
  SelectionRule selection = SelectionRule::kMagnitude;
  /// Start the ordering from the (start_rank+1)-th longest vector; distinct
  /// ranks give the diversified multi-start orderings Table 5 uses.
  std::size_t start_rank = 0;
  /// Optional shared compute budget (one greedy selection = one unit).
  /// On exhaustion the remaining vertices are appended in a cheap
  /// deterministic order so the result is still a full permutation — a
  /// valid, best-effort ordering rather than an aborted one.
  ComputeBudget* budget = nullptr;
  /// Compute-kernel threading (see util/parallel.h). The snapshot dots
  /// run in fixed blocks; the walk is serial. Orderings are bit-identical
  /// for every thread count — including the serial default.
  ParallelConfig parallel;
};

/// Work counters of the exact scan.
struct MeloOrderingStats {
  /// key() evaluations; a full scan would do n (n - 1) / 2.
  std::uint64_t key_evaluations = 0;
  /// Snapshots, each one dot product per unchosen vertex plus a sort.
  std::uint64_t reranks = 0;
};

/// Optional mid-construction coordinate readjustment (the paper's
/// H-recomputation): when |S| first reaches `at`, `rebuild` is called with
/// the chosen vertices and must return the re-scaled instance; the subset
/// sum is then recomputed under the new coordinates.
struct MeloReadjust {
  std::size_t at = 0;  // 0 disables
  std::function<VectorInstance(const std::vector<graph::NodeId>&)> rebuild;
};

/// Runs the MELO greedy over an explicit vector instance and returns the
/// selection order (a permutation of 0..n-1). Throws specpart::Error when
/// a vector's squared norm is not finite or the norms sum above 2^500.
/// When `stats` is set, the exact scan's counters are added to it.
part::Ordering melo_order_vectors(const VectorInstance& inst,
                                  const MeloOrderingOptions& opts,
                                  const MeloReadjust* readjust = nullptr,
                                  MeloOrderingStats* stats = nullptr);

}  // namespace specpart::core
