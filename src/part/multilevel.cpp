#include "part/multilevel.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "model/clique_models.h"
#include "part/objectives.h"
#include "part/ordering.h"
#include "spectral/sb.h"
#include "util/error.h"
#include "util/rng.h"

namespace specpart::part {

namespace {

/// Nets larger than this are ignored when scoring matches (their clique
/// connectivity is diffuse and scanning them dominates runtime).
constexpr std::size_t kMatchingNetCap = 32;

}  // namespace

graph::Hypergraph coarsen_once(const graph::Hypergraph& h,
                               const std::vector<double>& fine_weight,
                               std::uint64_t seed,
                               std::vector<std::uint32_t>* coarse_of,
                               std::vector<double>* coarse_weight) {
  const std::size_t n = h.num_nodes();
  SP_ASSERT(fine_weight.size() == n);
  SP_ASSERT(coarse_of != nullptr && coarse_weight != nullptr);

  Rng rng(seed);
  std::vector<graph::NodeId> visit(n);
  std::iota(visit.begin(), visit.end(), 0u);
  rng.shuffle(visit);

  // Heavy-edge matching with standard-clique connectivity w(e)/(|e|-1).
  std::vector<std::uint32_t> match(n, UINT32_MAX);
  std::vector<double> score(n, 0.0);
  std::vector<graph::NodeId> touched;
  for (graph::NodeId v : visit) {
    if (match[v] != UINT32_MAX) continue;
    touched.clear();
    for (graph::NetId e : h.nets_of(v)) {
      const auto& pins = h.net(e);
      if (pins.size() < 2 || pins.size() > kMatchingNetCap) continue;
      const double w =
          h.net_weight(e) / static_cast<double>(pins.size() - 1);
      for (graph::NodeId u : pins) {
        if (u == v || match[u] != UINT32_MAX) continue;
        if (score[u] == 0.0) touched.push_back(u);
        score[u] += w;
      }
    }
    graph::NodeId best = UINT32_MAX;
    double best_score = 0.0;
    for (graph::NodeId u : touched) {
      if (score[u] > best_score ||
          (score[u] == best_score && best != UINT32_MAX && u < best)) {
        best_score = score[u];
        best = u;
      }
      score[u] = 0.0;
    }
    if (best != UINT32_MAX) {
      match[v] = best;
      match[best] = v;
    }
  }

  // Assign coarse ids (matched pair -> one coarse vertex).
  coarse_of->assign(n, UINT32_MAX);
  coarse_weight->clear();
  std::uint32_t next = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    if ((*coarse_of)[v] != UINT32_MAX) continue;
    (*coarse_of)[v] = next;
    double w = fine_weight[v];
    if (match[v] != UINT32_MAX) {
      (*coarse_of)[match[v]] = next;
      w += fine_weight[match[v]];
    }
    coarse_weight->push_back(w);
    ++next;
  }

  // Project nets, merging duplicates by summed weight.
  std::map<std::vector<graph::NodeId>, double> merged;
  std::vector<graph::NodeId> pins;
  for (graph::NetId e = 0; e < h.num_nets(); ++e) {
    pins.clear();
    for (graph::NodeId v : h.net(e)) pins.push_back((*coarse_of)[v]);
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) continue;  // net collapsed inside a coarse vertex
    merged[pins] += h.net_weight(e);
  }
  std::vector<std::size_t> offsets{0};
  std::vector<graph::NodeId> net_pins;
  std::vector<double> weights;
  offsets.reserve(merged.size() + 1);
  weights.reserve(merged.size());
  for (const auto& [key, w] : merged) {
    net_pins.insert(net_pins.end(), key.begin(), key.end());
    offsets.push_back(net_pins.size());
    weights.push_back(w);
  }
  return graph::Hypergraph::from_csr(next, std::move(offsets),
                                     std::move(net_pins), std::move(weights));
}

namespace {

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
  Rng rng(opts.seed);
  while (levels.back().hypergraph.num_nodes() > opts.coarsest_size) {
    Level& fine = levels.back();
    std::vector<std::uint32_t> coarse_of;
    std::vector<double> coarse_weight;
    graph::Hypergraph coarse =
        coarsen_once(fine.hypergraph, fine.weight, rng.next_u64(),
                     &coarse_of, &coarse_weight);
    if (static_cast<double>(coarse.num_nodes()) >
        opts.min_shrink_factor *
            static_cast<double>(fine.hypergraph.num_nodes()))
      break;  // matching stalled
    fine.coarse_of = std::move(coarse_of);
    levels.push_back({std::move(coarse), std::move(coarse_weight), {}});
  }

  // Initial partition at the coarsest level.
  const Level& coarsest = levels.back();
  FmOptions fm_opts;
  fm_opts.balance = opts.balance;
  fm_opts.max_passes = opts.refine_passes;
  fm_opts.num_starts = opts.initial_starts;
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
