// End-to-end MELO pipelines on netlists.
//
// These drivers wire the full paper pipeline together:
//   netlist --clique model--> graph --Lanczos--> eigenbasis
//           --reduction(H)--> vectors --MELO greedy--> ordering
//           --split / DP-RP--> partitioning
// and expose the experiment-facing knobs (d, weighting scheme, net model,
// H readjustment, multi-start).
#pragma once

#include <cstdint>
#include <functional>

#include "core/melo.h"
#include "core/pipeline_config.h"
#include "core/reduction.h"
#include "graph/hypergraph.h"
#include "model/assembly.h"
#include "model/clique_models.h"
#include "part/partition.h"
#include "spectral/dprp.h"
#include "spectral/embedding.h"
#include "util/budget.h"
#include "util/status.h"

namespace specpart::core {

/// Pluggable eigensolve: given the (lazy) clique model and the embedding
/// options implied by the pipeline config, produce the eigenbasis. The
/// default (an unset provider) solves model.operator_matrix(objective)
/// directly — the Laplacian built fused from the pins (or its
/// degree-normalized rescale), no intermediate Graph; the serving layer
/// installs
/// a content-addressed cache here, keyed on the hypergraph itself, so
/// repeated requests skip both clique expansion and Lanczos. A provider
/// MUST return the same basis the direct call would (or a deterministic
/// function of the request), or the serving determinism contract breaks.
using EmbeddingProvider = std::function<spectral::EigenBasis(
    const model::CliqueModel&, const spectral::EmbeddingOptions&,
    Diagnostics*, ComputeBudget*)>;

/// PipelineConfig (the value-semantic knobs, shared with the service's
/// PartitionRequest) plus the per-run attachments that only make sense for
/// one concrete invocation.
struct MeloOptions : PipelineConfig {
  /// Optional diagnostics sink (non-owning): per-stage timings, warnings
  /// and fallback records for this run. nullptr = no recording.
  Diagnostics* diagnostics = nullptr;
  /// Optional shared compute budget (non-owning): deadline and/or max
  /// iterations across eigensolve, ordering and splitting. On exhaustion
  /// the pipeline returns the best valid partition found so far with
  /// `budget_exhausted` set instead of running unboundedly.
  ComputeBudget* budget = nullptr;
  /// Optional eigensolve interceptor (see EmbeddingProvider). Unset =
  /// direct spectral::compute_eigenbasis call.
  EmbeddingProvider embedding_provider;
};

/// One constructed ordering with its H bookkeeping and timings.
struct MeloOrderingRun {
  part::Ordering ordering;
  double h_initial = 0.0;
  double h_final = 0.0;
  double ordering_seconds = 0.0;  // this run's greedy construction
  /// True when every eigenvector actually used met the solver tolerance.
  bool eigen_converged = true;
  /// Eigenvectors the run was built from; less than
  /// MeloOptions.num_eigenvectors when the fallback chain degraded d.
  std::size_t eigenvectors_used = 0;
  /// True when the compute budget ran out during this run.
  bool budget_exhausted = false;
};

/// Builds the eigenbasis once and constructs `opts.num_starts` orderings.
std::vector<MeloOrderingRun> melo_orderings(const graph::Hypergraph& h,
                                            const MeloOptions& opts);

struct MeloBipartitionResult {
  part::Partition partition;
  part::Ordering ordering;     // the winning ordering
  std::size_t split = 0;       // prefix length of the winning split
  double cut = 0.0;            // net cut
  double ratio_cut = 0.0;      // cut / (|C1| |C2|)
  /// Conductance phi = cut / min(vol, vol-complement) of the winning
  /// partition (part/sweep_cut.h) — the optimized objective under the
  /// normalized model, reported for comparison under the default too.
  double conductance = 0.0;
  /// Eigensolver outcome actually consumed by the run (see MeloOrderingRun).
  bool eigen_converged = true;
  std::size_t eigenvectors_used = 0;
  /// True when the result is best-so-far under an exhausted ComputeBudget.
  bool budget_exhausted = false;
};

/// MELO bipartitioning. min_fraction = 0 selects the best ratio-cut split
/// over all prefixes; min_fraction > 0 (e.g. 0.45) selects the minimum-cut
/// split with both sides >= min_fraction * n — the Table 5 protocol.
/// Under objective = normalized the splitter is the conductance sweep cut
/// (part/sweep_cut.h) instead, with min_fraction as the same side floor.
MeloBipartitionResult melo_bipartition(const graph::Hypergraph& h,
                                       const MeloOptions& opts,
                                       double min_fraction = 0.0);

struct MeloMultiwayResult {
  part::Partition partition;
  part::Ordering ordering;
  double scaled_cost = 0.0;
  bool eigen_converged = true;
  std::size_t eigenvectors_used = 0;
  bool budget_exhausted = false;
};

/// MELO k-way partitioning: the best ordering is split by DP-RP under the
/// Scaled Cost objective (the Table 4 protocol). Size bounds of 0 keep
/// DP-RP unconstrained.
MeloMultiwayResult melo_multiway(const graph::Hypergraph& h, std::uint32_t k,
                                 const MeloOptions& opts,
                                 std::size_t min_cluster_size = 1,
                                 std::size_t max_cluster_size = 0);

}  // namespace specpart::core
