#include "graph/generator.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"
#include "util/rng.h"

namespace specpart::graph {

namespace {

/// Deterministic module -> (cluster, subcluster) layout shared by
/// generate_netlist and planted_clusters. Modules are dealt into clusters
/// contiguously with mildly jittered sizes.
struct Layout {
  std::vector<std::uint32_t> cluster_of;
  std::vector<std::uint32_t> subcluster_of;   // global subcluster index
  std::vector<std::vector<NodeId>> cluster_members;
  std::vector<std::vector<NodeId>> subcluster_members;
};

Layout make_layout(const GeneratorConfig& cfg, Rng& rng) {
  const std::size_t n = cfg.num_modules;
  // Clamp so every cluster can hold at least one module.
  const std::size_t c =
      std::max<std::size_t>(1, std::min(cfg.num_clusters, n));
  const std::size_t s = std::max<std::size_t>(1, cfg.subclusters_per_cluster);

  // Jittered proportional cluster sizes that sum to n.
  std::vector<double> jitter(c);
  double total = 0.0;
  for (double& j : jitter) {
    j = 0.8 + 0.4 * rng.next_double();
    total += j;
  }
  std::vector<std::size_t> cluster_size(c, 0);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < c; ++i) {
    cluster_size[i] = std::max<std::size_t>(
        1, static_cast<std::size_t>(jitter[i] / total * static_cast<double>(n)));
    assigned += cluster_size[i];
  }
  // Fix rounding drift onto the largest clusters.
  while (assigned < n) {
    ++cluster_size[rng.next_below(c)];
    ++assigned;
  }
  while (assigned > n) {
    const std::size_t i = rng.next_below(c);
    if (cluster_size[i] > 1) {
      --cluster_size[i];
      --assigned;
    }
  }

  Layout layout;
  layout.cluster_of.resize(n);
  layout.subcluster_of.resize(n);
  layout.cluster_members.resize(c);
  layout.subcluster_members.resize(c * s);
  NodeId next = 0;
  for (std::size_t ci = 0; ci < c; ++ci) {
    const std::size_t size = cluster_size[ci];
    for (std::size_t j = 0; j < size; ++j) {
      const NodeId v = next++;
      layout.cluster_of[v] = static_cast<std::uint32_t>(ci);
      // Deal members into subclusters round-robin so subcluster sizes are
      // balanced inside the cluster.
      const std::size_t sub = ci * s + j % s;
      layout.subcluster_of[v] = static_cast<std::uint32_t>(sub);
      layout.cluster_members[ci].push_back(v);
      layout.subcluster_members[sub].push_back(v);
    }
  }
  SP_ASSERT(next == n);
  return layout;
}

/// Samples `count` distinct vertices from `pool` (uniform, rejection-based;
/// count is at most a small fanout so this is fast).
void sample_distinct(const std::vector<NodeId>& pool, std::size_t count,
                     Rng& rng, std::vector<NodeId>& out) {
  out.clear();
  SP_ASSERT(count <= pool.size());
  if (count > pool.size() / 2) {
    // Dense draw: shuffle a copy and take a prefix.
    std::vector<NodeId> copy = pool;
    rng.shuffle(copy);
    out.assign(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(count));
    return;
  }
  while (out.size() < count) {
    const NodeId v = pool[rng.next_below(pool.size())];
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
}

std::size_t draw_net_size(const GeneratorConfig& cfg, Rng& rng) {
  std::size_t size = 2;
  while (size < cfg.max_net_size && rng.next_double() > cfg.net_size_tail)
    ++size;
  return size;
}

/// Union-find for the connectivity repair pass.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

Hypergraph generate_netlist(const GeneratorConfig& cfg) {
  SP_CHECK_INPUT(cfg.num_modules >= 2, "generator: need at least 2 modules");
  SP_CHECK_INPUT(cfg.p_subcluster >= 0.0 && cfg.p_cluster >= 0.0 &&
                     cfg.p_subcluster + cfg.p_cluster <= 1.0,
                 "generator: scope probabilities must be a sub-distribution");
  Rng rng(cfg.seed);
  const Layout layout = make_layout(cfg, rng);
  const std::size_t n = cfg.num_modules;

  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), 0u);

  // CSR net arrays: net e's pins are net_pins[offsets[e] .. offsets[e + 1]).
  std::vector<std::size_t> offsets{0};
  offsets.reserve(cfg.num_nets + 17);
  std::vector<NodeId> net_pins;
  std::vector<NodeId> pins;
  for (std::size_t e = 0; e < cfg.num_nets; ++e) {
    const double scope_draw = rng.next_double();
    const std::vector<NodeId>* pool = &all;
    if (scope_draw < cfg.p_subcluster) {
      const auto& sub = layout.subcluster_members[rng.next_below(
          layout.subcluster_members.size())];
      if (sub.size() >= 2) pool = &sub;
    } else if (scope_draw < cfg.p_subcluster + cfg.p_cluster) {
      const auto& cl =
          layout.cluster_members[rng.next_below(layout.cluster_members.size())];
      if (cl.size() >= 2) pool = &cl;
    }
    const std::size_t size = std::min(draw_net_size(cfg, rng), pool->size());
    sample_distinct(*pool, std::max<std::size_t>(2, size), rng, pins);
    net_pins.insert(net_pins.end(), pins.begin(), pins.end());
    offsets.push_back(net_pins.size());
  }

  // Repair connectivity: link every stray component to component 0 with a
  // 2-pin net between random representatives.
  UnionFind uf(n);
  for (std::size_t e = 0; e + 1 < offsets.size(); ++e)
    for (std::size_t i = offsets[e] + 1; i < offsets[e + 1]; ++i)
      uf.unite(net_pins[offsets[e]], net_pins[i]);
  std::vector<NodeId> representative;
  std::vector<char> seen_root(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t root = uf.find(v);
    if (!seen_root[root]) {
      seen_root[root] = 1;
      representative.push_back(v);
    }
  }
  for (std::size_t i = 1; i < representative.size(); ++i) {
    net_pins.push_back(representative[0]);
    net_pins.push_back(representative[i]);
    offsets.push_back(net_pins.size());
    uf.unite(representative[0], representative[i]);
  }

  return Hypergraph::from_csr(n, std::move(offsets), std::move(net_pins));
}

std::vector<std::uint32_t> planted_clusters(const GeneratorConfig& cfg) {
  Rng rng(cfg.seed);
  return make_layout(cfg, rng).cluster_of;
}

}  // namespace specpart::graph
