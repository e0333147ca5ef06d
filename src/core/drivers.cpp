#include "core/drivers.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/reduction.h"
#include "part/objectives.h"
#include "part/ordering.h"
#include "part/sweep_cut.h"
#include "util/error.h"
#include "util/stringutil.h"
#include "util/timer.h"

namespace specpart::core {

namespace {

/// Eigenpairs requested when num_eigenvectors == 0 (automatic d): enough
/// spectrum to expose the higher-order Cheeger gap, small enough that the
/// solve stays cheap.
constexpr std::size_t kAutoDimensionCap = 16;

/// Spectral-gap-guided d: keep the eigenvalue prefix ending at the largest
/// relative gap lambda_{i+1} / lambda_i over the nontrivial spectrum (the
/// higher-order Cheeger heuristic: a big ratio separates the cluster
/// eigenvalues from the rest). Trivial (~0) eigenvalues are skipped as
/// candidates, at least two columns are kept, and a gapless spectrum keeps
/// everything. Deterministic: the first maximal ratio wins.
std::size_t auto_dimension(const linalg::Vec& values) {
  const std::size_t m = values.size();
  if (m < 3) return m;
  const double eps = 1e-10 * std::max(1.0, std::abs(values[m - 1]));
  double best_ratio = 0.0;
  std::size_t best_keep = m;
  for (std::size_t i = 1; i + 1 < m; ++i) {
    if (values[i] <= eps) continue;  // still inside the trivial cluster
    const double ratio = values[i + 1] / values[i];
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_keep = i + 1;
    }
  }
  return std::max<std::size_t>(best_keep, 2);
}

/// E(C) of a vertex set in a graph: total weight of edges leaving the set.
double set_degree(const graph::Graph& g, const std::vector<graph::NodeId>& c,
                  std::vector<char>& scratch) {
  scratch.assign(g.num_nodes(), 0);
  for (graph::NodeId v : c) scratch[v] = 1;
  double degree = 0.0;
  for (const graph::Edge& e : g.edges())
    if (scratch[e.u] != scratch[e.v]) degree += e.weight;
  return degree;
}

}  // namespace

std::vector<MeloOrderingRun> melo_orderings(const graph::Hypergraph& h,
                                            const MeloOptions& opts) {
  SP_CHECK_INPUT(h.num_nodes() >= 2, "MELO: need at least 2 vertices");

  Diagnostics* diag = opts.diagnostics;
  ComputeBudget* budget = opts.budget;

  // Lazy clique model: the Laplacian is assembled fused from the pins on
  // first use; a caching provider that hits never expands the model at all.
  model::ModelBuildOptions mbopts;
  mbopts.max_clique_pairs = opts.max_clique_pairs;
  mbopts.parallel = opts.parallel;
  const model::CliqueModel cm(h, opts.net_model, mbopts);
  spectral::EmbeddingOptions eopts = opts.embedding_options();
  // num_eigenvectors == 0 = automatic d: request a fixed slice of the low
  // spectrum and keep the prefix ending at the largest Cheeger gap below.
  // The fixed request keeps cache keys and the solve itself deterministic.
  const bool auto_d = opts.num_eigenvectors == 0;
  if (auto_d) eopts.count = kAutoDimensionCap;
  spectral::EigenBasis basis =
      opts.embedding_provider
          ? opts.embedding_provider(cm, eopts, diag, budget)
          : spectral::compute_eigenbasis(
                cm.operator_matrix(eopts.objective, diag), eopts, diag,
                budget);
  if (auto_d && basis.dimension() >= 3) {
    const std::size_t keep = auto_dimension(basis.values);
    if (keep < basis.dimension()) {
      basis.values.resize(keep);
      linalg::DenseMatrix kept(basis.n, keep);
      for (std::size_t j = 0; j < keep; ++j)
        kept.set_col(j, basis.vectors.col(j));
      basis.vectors = std::move(kept);
      basis.converged_pairs = std::min(basis.converged_pairs, keep);
    }
    // The selection is the requested d now — a kept prefix shorter than
    // the probe slice is the algorithm working, not a degraded basis.
    basis.requested = basis.dimension();
    if (diag != nullptr)
      diag->add_counter("eigensolve", "auto_d_selected", keep);
  }
  // Consume the solver outcome instead of ignoring it: a degraded basis
  // lowers the effective d (the paper's own "fewer eigenvectors still
  // work" justifies running on the converged prefix); an unconverged one
  // is surfaced as a warning and in every result struct.
  const std::size_t d_effective = basis.dimension();
  SP_REQUIRE(d_effective >= 1, "MELO: eigenbasis has no usable column");
  if (diag != nullptr && d_effective < basis.requested)
    diag->fallback("ordering",
                   strprintf("degraded d from %zu to %zu (unconverged "
                             "trailing eigenpairs)",
                             basis.requested, d_effective));
  if (diag != nullptr && !basis.converged)
    diag->warn("eigensolve",
               strprintf("eigenbasis not fully converged (%zu of %zu "
                         "pair(s) met tolerance)",
                         basis.converged_pairs, d_effective));

  const double h0 =
      opts.h_override > 0.0 ? opts.h_override : default_h(basis);
  const VectorInstance base_instance =
      build_scaled_instance(basis, opts.scaling, h0);

  std::vector<char> scratch;
  std::vector<MeloOrderingRun> runs;
  MeloOrderingStats ordering_stats;
  const std::size_t starts = std::max<std::size_t>(1, opts.num_starts);
  for (std::size_t start = 0; start < starts; ++start) {
    // Later starts are pure quality improvement: skip them (keeping the
    // result valid) once the budget is gone. The first start always runs.
    if (start > 0 && !budget_ok(budget)) {
      if (diag != nullptr) diag->mark_budget_exhausted("ordering");
      break;
    }
    MeloOrderingRun run;
    run.h_initial = h0;
    run.h_final = h0;
    run.eigen_converged = basis.converged;
    run.eigenvectors_used = d_effective;

    MeloOrderingOptions oopts = opts.ordering_options(start);
    oopts.budget = budget;

    MeloReadjust readjust;
    const bool do_readjust = opts.readjust_h && opts.h_override <= 0.0 &&
                             scaling_uses_h(opts.scaling) &&
                             h.num_nodes() >= 8;
    if (do_readjust) {
      readjust.at = h.num_nodes() / 2;
      readjust.rebuild =
          [&](const std::vector<graph::NodeId>& members) -> VectorInstance {
        // The clique graph is only needed if readjustment actually fires;
        // cm derives it lazily (O(nnz) from the Laplacian when that was
        // built, fused from the pins otherwise).
        const double degree = set_degree(cm.graph(diag), members, scratch);
        run.h_final = readjusted_h(basis, members, degree);
        return build_scaled_instance(basis, opts.scaling, run.h_final);
      };
    }

    Timer order_timer;
    {
      StageTimerScope order_scope(diag, "ordering");
      run.ordering = melo_order_vectors(base_instance, oopts,
                                        do_readjust ? &readjust : nullptr,
                                        &ordering_stats);
    }
    run.ordering_seconds = order_timer.seconds();
    run.budget_exhausted = basis.budget_exhausted || !budget_ok(budget);
    if (run.budget_exhausted && diag != nullptr)
      diag->mark_budget_exhausted("ordering");
    runs.push_back(std::move(run));
  }
  if (diag != nullptr) {
    diag->add_counter("ordering", "key_evaluations",
                      ordering_stats.key_evaluations);
    diag->add_counter("ordering", "reranks", ordering_stats.reranks);
  }

  if (opts.objective == ObjectiveModel::kNormalizedSymmetric) {
    // Cheeger sweep candidates: the classical normalized-spectral split
    // sweeps vertices sorted by the first nontrivial eigenvector of
    // D^{-1/2} L D^{-1/2}, which carries the Cheeger conductance
    // guarantee the d-dimensional melo orderings do not. Every further
    // eigenvector gets its own sweep too (the higher-order Cheeger
    // orderings — one per column, each an O(n log n) sort). They ride
    // along as extra runs, so the splitter keeps whichever ordering
    // yields the lowest objective. Only the normalized pipeline grows
    // these runs — default-objective results stay bit-identical.
    const std::size_t first = eopts.skip_trivial ? 0 : 1;
    for (std::size_t col = std::min(first, d_effective - 1);
         col < d_effective; ++col) {
      MeloOrderingRun run;
      run.h_initial = h0;
      run.h_final = h0;
      run.eigen_converged = basis.converged;
      run.eigenvectors_used = d_effective;
      run.budget_exhausted = basis.budget_exhausted || !budget_ok(budget);
      const linalg::Vec f = basis.vectors.col(col);
      Timer order_timer;
      run.ordering.resize(h.num_nodes());
      std::iota(run.ordering.begin(), run.ordering.end(), graph::NodeId{0});
      std::stable_sort(run.ordering.begin(), run.ordering.end(),
                       [&f](graph::NodeId a, graph::NodeId b) {
                         return f[a] < f[b];
                       });
      run.ordering_seconds = order_timer.seconds();
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

MeloBipartitionResult melo_bipartition(const graph::Hypergraph& h,
                                       const MeloOptions& opts,
                                       double min_fraction) {
  const std::vector<MeloOrderingRun> runs = melo_orderings(h, opts);
  StageTimerScope split_scope(opts.diagnostics, "split");
  // The splitter follows the objective model: the unnormalized pipeline
  // keeps the paper's min-cut / ratio-cut splits, the normalized pipeline
  // takes the conductance sweep cut over the same orderings. Both pick the
  // best run by their own objective value.
  const bool sweep_cut =
      opts.objective == ObjectiveModel::kNormalizedSymmetric;
  MeloBipartitionResult best;
  double best_objective = std::numeric_limits<double>::infinity();
  bool have = false;
  for (const MeloOrderingRun& run : runs) {
    const part::SplitResult split =
        sweep_cut
            ? part::best_conductance_split(h, run.ordering, min_fraction)
            : (min_fraction > 0.0
                   ? part::best_min_cut_split(h, run.ordering, min_fraction)
                   : part::best_ratio_cut_split(h, run.ordering));
    best.eigen_converged = run.eigen_converged;
    best.eigenvectors_used = run.eigenvectors_used;
    best.budget_exhausted = best.budget_exhausted || run.budget_exhausted;
    if (!split.feasible) continue;
    if (!have || split.objective < best_objective) {
      have = true;
      best_objective = split.objective;
      best.partition = part::split_to_partition(run.ordering, split.split);
      best.ordering = run.ordering;
      best.split = split.split;
      best.cut = split.cut;
    }
  }
  SP_CHECK_INPUT(have, "MELO bipartition: no feasible split");
  best.ratio_cut = part::ratio_cut(h, best.partition);
  best.conductance = part::conductance(h, best.partition);
  return best;
}

MeloMultiwayResult melo_multiway(const graph::Hypergraph& h, std::uint32_t k,
                                 const MeloOptions& opts,
                                 std::size_t min_cluster_size,
                                 std::size_t max_cluster_size) {
  const std::vector<MeloOrderingRun> runs = melo_orderings(h, opts);
  StageTimerScope split_scope(opts.diagnostics, "split");
  spectral::DprpOptions dopts;
  dopts.k = k;
  dopts.min_cluster_size = min_cluster_size;
  dopts.max_cluster_size = max_cluster_size;
  dopts.parallel = opts.parallel;

  MeloMultiwayResult best;
  bool have = false;
  for (const MeloOrderingRun& run : runs) {
    const spectral::DprpResult dp = spectral::dprp_split(h, run.ordering, dopts);
    best.eigen_converged = run.eigen_converged;
    best.eigenvectors_used = run.eigenvectors_used;
    best.budget_exhausted = best.budget_exhausted || run.budget_exhausted;
    if (!have || dp.scaled_cost < best.scaled_cost) {
      have = true;
      best.partition = dp.partition;
      best.ordering = run.ordering;
      best.scaled_cost = dp.scaled_cost;
    }
  }
  SP_ASSERT(have);
  return best;
}

}  // namespace specpart::core
