#include "part/multilevel.h"

#include "model/clique_models.h"
#include "multilevel/coarsen.h"
#include "part/objectives.h"
#include "part/ordering.h"
#include "spectral/sb.h"
#include "util/error.h"

namespace specpart::part {

namespace {

/// Stop coarsening once this few vertices remain.
constexpr std::size_t kCoarsestSize = 64;
/// Stop coarsening when a level keeps more than this fraction of its
/// vertices (protects against matching stalls on star-heavy netlists).
constexpr double kMinShrinkFactor = 0.9;
/// FM passes per refinement sweep, and FM starts at the coarsest level.
constexpr std::size_t kRefinePasses = 8;
constexpr std::size_t kInitialStarts = 8;

/// Weighted balanced min-cut split of an ordering: both sides must hold at
/// least min_fraction of the total weight.
Partition weighted_best_split(const graph::Hypergraph& h, const Ordering& o,
                              const std::vector<double>& weight,
                              double min_fraction) {
  const std::size_t n = h.num_nodes();
  const std::vector<double> cuts = prefix_cuts(h, o);
  double total = 0.0;
  for (double w : weight) total += w;
  const double lower = min_fraction * total - 1e-9;

  double prefix_weight = 0.0;
  double best_cut = 0.0;
  std::size_t best_split = 0;
  bool have = false;
  for (std::size_t i = 1; i < n; ++i) {
    prefix_weight += weight[o[i - 1]];
    if (prefix_weight < lower || total - prefix_weight < lower) continue;
    if (!have || cuts[i] < best_cut) {
      have = true;
      best_cut = cuts[i];
      best_split = i;
    }
  }
  // Fall back to the half split when the weights make every split
  // infeasible (single dominant coarse vertex).
  if (!have) best_split = n / 2;
  return split_to_partition(o, best_split);
}

}  // namespace

MultilevelResult multilevel_bipartition(const graph::Hypergraph& h,
                                        const MultilevelOptions& opts) {
  SP_CHECK_INPUT(h.num_nodes() >= 2, "multilevel: need at least 2 vertices");

  struct Level {
    graph::Hypergraph hypergraph;
    std::vector<double> weight;          // per vertex of this level
    std::vector<std::uint32_t> coarse_of;  // this level -> next level
  };
  std::vector<Level> levels;
  levels.push_back({h, std::vector<double>(h.num_nodes(), 1.0), {}});

  // Coarsening phase.
  while (levels.back().hypergraph.num_nodes() > kCoarsestSize) {
    Level& fine = levels.back();
    std::vector<std::uint32_t> coarse_of;
    std::vector<double> coarse_weight;
    graph::Hypergraph coarse = multilevel::coarsen_hypergraph(
        fine.hypergraph, fine.weight, &coarse_of, &coarse_weight);
    if (static_cast<double>(coarse.num_nodes()) >
        kMinShrinkFactor * static_cast<double>(fine.hypergraph.num_nodes()))
      break;  // matching stalled
    fine.coarse_of = std::move(coarse_of);
    levels.push_back({std::move(coarse), std::move(coarse_weight), {}});
  }

  // Initial partition at the coarsest level.
  const Level& coarsest = levels.back();
  FmOptions fm_opts;
  fm_opts.balance = opts.balance;
  fm_opts.max_passes = kRefinePasses;
  fm_opts.num_starts = kInitialStarts;
  fm_opts.seed = opts.seed ^ 0x5EEDULL;
  fm_opts.vertex_weights = coarsest.weight;

  Partition current(coarsest.hypergraph.num_nodes(), 2);
  if (opts.spectral_initial && coarsest.hypergraph.num_nets() > 0 &&
      coarsest.hypergraph.num_nodes() >= 4) {
    const graph::Graph g = model::clique_expand(
        coarsest.hypergraph, model::NetModel::kPartitioningSpecific);
    const Ordering order =
        spectral::fiedler_ordering(g, opts.seed ^ 0xF1EDULL);
    current = weighted_best_split(coarsest.hypergraph, order,
                                  coarsest.weight, opts.balance.min_fraction);
    current = fm_refine(coarsest.hypergraph, current, fm_opts).partition;
  } else {
    current = fm_bipartition(coarsest.hypergraph, fm_opts).partition;
  }

  // Uncoarsening + refinement phase.
  for (std::size_t level = levels.size() - 1; level-- > 0;) {
    const Level& fine = levels[level];
    std::vector<std::uint32_t> projected(fine.hypergraph.num_nodes());
    for (graph::NodeId v = 0; v < fine.hypergraph.num_nodes(); ++v)
      projected[v] = current.cluster_of(fine.coarse_of[v]);
    Partition fine_partition(std::move(projected), 2);

    FmOptions refine_opts = fm_opts;
    refine_opts.vertex_weights = fine.weight;
    refine_opts.seed = opts.seed ^ (level * 0x9E3779B97F4A7C15ULL);
    current = fm_refine(fine.hypergraph, fine_partition, refine_opts)
                  .partition;
  }

  MultilevelResult result;
  result.partition = std::move(current);
  result.cut = cut_nets(h, result.partition);
  result.levels = levels.size() - 1;
  return result;
}

}  // namespace specpart::part
