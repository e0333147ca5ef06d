// Multilevel bipartitioning: coarsen -> initial partition -> uncoarsen +
// refine. The paper's survey cites multilevel implementations of spectral
// bisection [6]; this module is the FM driver of that V-cycle: it coarsens
// with the heavy-edge pairing the multilevel eigensolver also uses
// (multilevel::coarsen_hypergraph), partitions the coarsest netlist with
// multi-start FM or spectrally, and refines each projection with weighted
// FM. The coarsening floor, the stall factor and the FM pass and start
// counts are constants in multilevel.cpp.
#pragma once

#include <cstdint>

#include "graph/hypergraph.h"
#include "part/fm.h"
#include "part/partition.h"

namespace specpart::part {

struct MultilevelOptions {
  /// Balance constraint on the ORIGINAL vertices.
  BalanceConstraint balance{0.45, 0.55};
  /// Use the spectral (SB) initial partitioner at the coarsest level
  /// instead of multi-start FM — the Barnard-Simon "multilevel spectral
  /// bisection" configuration.
  bool spectral_initial = false;
  /// Seeds the FM starts and refinement sweeps (coarsening is
  /// deterministic and takes no seed).
  std::uint64_t seed = 0x9137EDULL;
};

struct MultilevelResult {
  Partition partition;
  double cut = 0.0;
  /// Number of coarsening levels used (0 = the instance was already small).
  std::size_t levels = 0;
};

/// Multilevel 2-way partitioning of a netlist.
MultilevelResult multilevel_bipartition(const graph::Hypergraph& h,
                                        const MultilevelOptions& opts);

}  // namespace specpart::part
