// Experiment runners — one function per table/figure of the paper.
//
// Each runner regenerates its table on the synthetic suite and returns a
// Table ready for printing; the bench/ binaries are thin CLI wrappers
// around these. EXPERIMENTS.md records the paper-vs-measured comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/suite.h"
#include "exp/tableio.h"

namespace specpart::exp {

struct RunnerOptions {
  /// Suite scale factor in (0, 1].
  double scale = 1.0;
  /// Keep only the first `limit` benchmarks (0 = all 12).
  std::size_t limit = 0;
  /// Base seed for all randomized components.
  std::uint64_t seed = 7;
};

/// Table 1: benchmark statistics (modules / nets / pins).
Table run_table1(const RunnerOptions& opts);

/// Table 2: MELO weighting schemes #1-#4 (eigenvector coordinate scalings)
/// compared on balanced (45-55%) bipartitioning net cut with d eigenvectors.
Table run_table2_schemes(const RunnerOptions& opts, std::size_t d = 10);

/// Table 3: MELO balanced-bipartitioning quality as a function of the
/// eigenvector count d.
Table run_table3_dims(const RunnerOptions& opts,
                      const std::vector<std::size_t>& dims);

/// Averages reported under Table 4 (MELO improvement over each baseline).
struct Table4Summary {
  double avg_improvement_vs_rsb = 0.0;
  double avg_improvement_vs_kp = 0.0;
  double avg_improvement_vs_sfc = 0.0;
  std::size_t rows = 0;
};

/// Table 4: multi-way Scaled Cost — RSB vs KP vs SFC vs MELO for the given
/// cluster counts. Scaled Cost x 1e5.
Table run_table4_multiway(const RunnerOptions& opts,
                          const std::vector<std::uint32_t>& ks,
                          Table4Summary* summary);

/// Table 5: balanced (45-55%) bipartitioning net cuts — SB vs multi-start
/// FM (the PARABOLI stand-in) vs MELO — plus MELO ordering-construction
/// runtimes at d = 2 and d = 10.
Table run_table5_bipart(const RunnerOptions& opts);

/// Figure: ratio cut as a function of d on one benchmark (series for
/// plotting), with the SB value as reference.
Table run_fig_quality_vs_d(const RunnerOptions& opts,
                           const std::string& benchmark, std::size_t max_d);

/// Ablation: net model choice (standard / partitioning-specific / Frankle)
/// for MELO and RSB.
Table run_ablation_net_models(const RunnerOptions& opts);

/// Ablation: H readjustment on vs off.
Table run_ablation_h_readjust(const RunnerOptions& opts);

/// Ablation: greedy selection rule (magnitude / projection / cosine).
Table run_ablation_selection(const RunnerOptions& opts);

/// Extended comparison (beyond the paper's Table 5): balanced 2-way net
/// cut for MELO vs the other spectral families the paper surveys
/// (Frankle-Karp probes, Barnes' transportation method) and the move-based
/// families (multilevel FM, flat FM).
Table run_extended_bipartitioners(const RunnerOptions& opts);

/// Ablation: MELO with and without FM post-refinement (the Hadley et al.
/// [26] iterative-improvement post-processing the paper cites).
Table run_ablation_fm_post(const RunnerOptions& opts);

/// Extended multi-way comparison (beyond Table 4): Scaled Cost of MELO vs
/// RSB vs spectral k-means vs Barnes' transportation method.
Table run_extended_multiway(const RunnerOptions& opts,
                            const std::vector<std::uint32_t>& ks);

}  // namespace specpart::exp
