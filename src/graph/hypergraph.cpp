#include "graph/hypergraph.h"

#include <algorithm>
#include <functional>

#include "util/error.h"

namespace specpart::graph {

Hypergraph::Hypergraph(std::size_t num_nodes,
                       const std::vector<std::vector<NodeId>>& nets,
                       std::vector<double> net_weights)
    : net_offsets_(nets.size() + 1, 0), net_weights_(std::move(net_weights)) {
  for (std::size_t e = 0; e < nets.size(); ++e)
    net_offsets_[e + 1] = net_offsets_[e] + nets[e].size();
  pins_.reserve(net_offsets_.back());
  for (const auto& net : nets)
    pins_.insert(pins_.end(), net.begin(), net.end());
  canonicalize(num_nodes);
}

Hypergraph Hypergraph::from_csr(std::size_t num_nodes,
                                std::vector<std::size_t> net_offsets,
                                std::vector<NodeId> pins,
                                std::vector<double> net_weights) {
  Hypergraph h;
  h.net_offsets_ = std::move(net_offsets);
  h.pins_ = std::move(pins);
  h.net_weights_ = std::move(net_weights);
  h.canonicalize(num_nodes);
  return h;
}

void Hypergraph::canonicalize(std::size_t num_nodes) {
  SP_REQUIRE(!net_offsets_.empty() && net_offsets_.front() == 0 &&
                 net_offsets_.back() == pins_.size(),
             "hypergraph: net offsets must run from 0 to the pin count");
  const std::size_t num_nets = net_offsets_.size() - 1;
  if (net_weights_.empty()) net_weights_.assign(num_nets, 1.0);
  SP_REQUIRE(net_weights_.size() == num_nets,
             "hypergraph: net weight count mismatch");

  // Sort and de-duplicate every net in place (a strictly ascending net, as
  // the canonical writer emits, is left alone), compacting the pin array
  // and counting each vertex's nets into node_offsets_[v + 2].
  node_offsets_.assign(num_nodes + 2, 0);
  std::size_t kept = 0;
  for (std::size_t e = 0; e < num_nets; ++e) {
    const std::size_t begin = net_offsets_[e];
    const std::size_t end = net_offsets_[e + 1];
    SP_REQUIRE(begin <= end && end <= pins_.size(),
               "hypergraph: net offsets must not decrease");
    const auto first = pins_.begin() + static_cast<std::ptrdiff_t>(begin);
    auto last = pins_.begin() + static_cast<std::ptrdiff_t>(end);
    if (std::adjacent_find(first, last, std::greater_equal<>()) != last) {
      std::sort(first, last);
      last = std::unique(first, last);
    }
    net_offsets_[e] = kept;
    for (auto it = first; it != last; ++it) {
      SP_ASSERT(*it < num_nodes);
      ++node_offsets_[*it + 2];
      pins_[kept++] = *it;
    }
  }
  net_offsets_[num_nets] = kept;
  pins_.resize(kept);

  // Incidence by counting sort: scattering the nets in id order lists each
  // vertex's nets ascending. After the prefix sum node_offsets_[v + 1] is
  // v's first slot and serves as its cursor; after the scatter it holds
  // v's end, which is where v + 1 starts, so dropping the spare last slot
  // leaves the offsets.
  for (std::size_t v = 2; v <= num_nodes; ++v)
    node_offsets_[v] += node_offsets_[v - 1];
  node_nets_.resize(pins_.size());
  for (NetId e = 0; e < num_nets; ++e)
    for (const NodeId v : net(e)) node_nets_[node_offsets_[v + 1]++] = e;
  node_offsets_.pop_back();
}

std::size_t Hypergraph::max_net_size() const {
  std::size_t m = 0;
  for (std::size_t e = 0; e < num_nets(); ++e)
    m = std::max(m, net_offsets_[e + 1] - net_offsets_[e]);
  return m;
}

bool Hypergraph::connected() const {
  const std::size_t n = num_nodes();
  if (n <= 1) return true;
  std::vector<char> node_seen(n, 0);
  std::vector<char> net_seen(num_nets(), 0);
  std::vector<NodeId> stack{0};
  node_seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NetId e : nets_of(v)) {
      if (net_seen[e]) continue;
      net_seen[e] = 1;
      for (NodeId u : net(e)) {
        if (!node_seen[u]) {
          node_seen[u] = 1;
          ++visited;
          stack.push_back(u);
        }
      }
    }
  }
  return visited == n;
}

namespace {

graph::Hypergraph induced_impl(const Hypergraph& h,
                               const std::vector<NodeId>& nodes,
                               bool strict) {
  std::vector<std::uint32_t> remap(h.num_nodes(), UINT32_MAX);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    SP_ASSERT(nodes[i] < h.num_nodes());
    SP_REQUIRE(remap[nodes[i]] == UINT32_MAX,
               "Hypergraph::induced: duplicate vertex id");
    remap[nodes[i]] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::size_t> sub_offsets{0};
  std::vector<NodeId> sub_pins;
  std::vector<double> sub_weights;
  for (NetId e = 0; e < h.num_nets(); ++e) {
    const std::size_t start = sub_pins.size();
    bool complete = true;
    for (NodeId v : h.net(e)) {
      if (remap[v] != UINT32_MAX)
        sub_pins.push_back(remap[v]);
      else
        complete = false;
    }
    if ((strict && !complete) || sub_pins.size() - start < 2) {
      sub_pins.resize(start);
      continue;
    }
    sub_offsets.push_back(sub_pins.size());
    sub_weights.push_back(h.net_weight(e));
  }
  return Hypergraph::from_csr(nodes.size(), std::move(sub_offsets),
                              std::move(sub_pins), std::move(sub_weights));
}

}  // namespace

Hypergraph Hypergraph::induced(const std::vector<NodeId>& nodes) const {
  return induced_impl(*this, nodes, /*strict=*/false);
}

Hypergraph Hypergraph::induced_strict(const std::vector<NodeId>& nodes) const {
  return induced_impl(*this, nodes, /*strict=*/true);
}

void Hypergraph::set_node_names(std::vector<std::string> names) {
  SP_REQUIRE(names.empty() || names.size() == num_nodes(),
             "hypergraph: node name count mismatch");
  node_names_ = std::move(names);
}

Hypergraph to_hypergraph(const Graph& g) {
  std::vector<std::size_t> offsets;
  std::vector<NodeId> pins;
  std::vector<double> weights;
  offsets.reserve(g.num_edges() + 1);
  pins.reserve(2 * g.num_edges());
  weights.reserve(g.num_edges());
  offsets.push_back(0);
  for (const Edge& e : g.edges()) {
    pins.push_back(e.u);
    pins.push_back(e.v);
    offsets.push_back(pins.size());
    weights.push_back(e.weight);
  }
  return Hypergraph::from_csr(g.num_nodes(), std::move(offsets),
                              std::move(pins), std::move(weights));
}

}  // namespace specpart::graph
