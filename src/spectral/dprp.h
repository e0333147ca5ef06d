// DP-RP — dynamic-programming restricted partitioning (Alpert/Kahng [1]).
//
// Given a vertex ordering, finds the k-way partitioning into *contiguous*
// segments of the ordering that minimizes Scaled Cost, subject to per-
// cluster size bounds. This is how both SFC orderings and MELO orderings
// become multi-way partitionings ("To generate multi-way partitionings from
// MELO orderings, we apply the DP-RP algorithm of [1]").
//
// The DP relaxes dp[h][j] = min_i dp[h-1][i] + E(i,j) / (j-i), where E(i,j)
// is the weight of nets with pins both inside and outside ordering[i..j).
// Segment costs are generated on the fly with an incremental sweep, so no
// O(n^2) table is materialized.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/hypergraph.h"
#include "part/ordering.h"
#include "part/partition.h"
#include "util/parallel.h"

namespace specpart::spectral {

struct DprpOptions {
  std::uint32_t k = 2;
  /// Cluster size bounds in vertices; 0 for max means "no upper bound".
  std::size_t min_cluster_size = 1;
  std::size_t max_cluster_size = 0;
  /// Compute-kernel threading (see util/parallel.h): within each DP level
  /// the start positions i are swept in fixed blocks with private
  /// scratch, and block results merge by strict improvement in ascending
  /// block order — bit-identical to the serial sweep for any thread count.
  ParallelConfig parallel;
};

struct DprpResult {
  part::Partition partition;
  /// Scaled Cost of the result, measured on the hypergraph.
  double scaled_cost = 0.0;
  /// Segment boundaries: cluster h spans positions
  /// [boundaries[h], boundaries[h+1]) of the ordering (size k+1).
  std::vector<std::size_t> boundaries;
  bool feasible = false;
};

/// Optimal restricted (contiguous) k-way partitioning of the ordering under
/// the Scaled Cost objective. Throws specpart::Error when the size bounds
/// admit no k-way split at all.
DprpResult dprp_split(const graph::Hypergraph& h, const part::Ordering& o,
                      const DprpOptions& opts);

}  // namespace specpart::spectral
