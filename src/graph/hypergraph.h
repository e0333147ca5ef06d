// Hypergraphs (circuit netlists).
//
// A VLSI netlist is naturally a hypergraph: modules are vertices, signal
// nets are hyperedges over the modules they connect. All paper objectives
// that matter to a circuit designer (net cut, Scaled Cost) are evaluated on
// the hypergraph; the spectral machinery runs on a clique-model Graph
// derived from it (src/model).
//
// Storage is two CSR pairs on the same data plane as graph::Graph and
// linalg::SymCsrMatrix (linalg/csr.h: std::size_t offsets, uint32 ids):
// net offsets with the pins of every net, and vertex offsets with the nets
// incident to every vertex. Both constructors canonicalize through one
// path — each net's pins sorted and de-duplicated in place, the incidence
// built by a counting sort — so a vertex lists its nets in ascending id.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace specpart::graph {

using NetId = std::uint32_t;

/// Immutable hypergraph with pin lists and an inverse vertex -> nets index.
class Hypergraph {
 public:
  Hypergraph() = default;

  /// Builds a hypergraph on `num_nodes` vertices from a list of nets
  /// (each net = list of pins = vertex ids). Duplicate pins within a net are
  /// merged; nets with fewer than 2 distinct pins are kept but never count
  /// as cut. `net_weights` is optional (empty = all 1.0).
  Hypergraph(std::size_t num_nodes,
             const std::vector<std::vector<NodeId>>& nets,
             std::vector<double> net_weights = {});

  /// Same, from CSR arrays: net e's pins are
  /// pins[net_offsets[e] .. net_offsets[e + 1]). `net_offsets` starts at 0,
  /// never decreases and ends at pins.size(); the pins are sorted and
  /// de-duplicated in place. A named constructor, so that brace-initialized
  /// calls like Hypergraph(2, {{0, 1}}, {3.0}) stay unambiguous.
  static Hypergraph from_csr(std::size_t num_nodes,
                             std::vector<std::size_t> net_offsets,
                             std::vector<NodeId> pins,
                             std::vector<double> net_weights = {});

  std::size_t num_nodes() const {
    return node_offsets_.empty() ? 0 : node_offsets_.size() - 1;
  }
  std::size_t num_nets() const { return net_weights_.size(); }

  /// Total pin count (after duplicate-pin merging).
  std::size_t num_pins() const { return pins_.size(); }

  /// Pins of net e, ascending.
  std::span<const NodeId> net(NetId e) const {
    return {pins_.data() + net_offsets_[e],
            net_offsets_[e + 1] - net_offsets_[e]};
  }
  double net_weight(NetId e) const { return net_weights_[e]; }

  /// Nets incident to vertex v, ascending.
  std::span<const NetId> nets_of(NodeId v) const {
    return {node_nets_.data() + node_offsets_[v],
            node_offsets_[v + 1] - node_offsets_[v]};
  }

  /// Number of nets incident to vertex v.
  std::size_t node_degree(NodeId v) const {
    return node_offsets_[v + 1] - node_offsets_[v];
  }

  /// Largest net size.
  std::size_t max_net_size() const;

  /// True when the hypergraph is connected (via shared nets).
  bool connected() const;

  /// Induced sub-hypergraph on `nodes` (distinct ids). Vertex i of the
  /// result corresponds to nodes[i]; only net fragments with >= 2 pins
  /// inside `nodes` survive. Used by recursive partitioners (RSB).
  Hypergraph induced(const std::vector<NodeId>& nodes) const;

  /// Strict variant: keeps only nets whose pins ALL lie inside `nodes`.
  /// This is the right sub-problem for pairwise k-way refinement — a net
  /// with pins in a third cluster is cut no matter how the pair's vertices
  /// move, so it must not bias the local optimizer.
  Hypergraph induced_strict(const std::vector<NodeId>& nodes) const;

  /// Optional vertex names (from netlist files); empty if unnamed.
  const std::vector<std::string>& node_names() const { return node_names_; }
  void set_node_names(std::vector<std::string> names);

 private:
  /// The one canonicalization path: validates the net arrays, sorts and
  /// de-duplicates each net in place, then builds the incidence.
  void canonicalize(std::size_t num_nodes);

  std::vector<std::size_t> net_offsets_;   // num_nets + 1
  std::vector<NodeId> pins_;
  std::vector<double> net_weights_;
  std::vector<std::size_t> node_offsets_;  // num_nodes + 1
  std::vector<NetId> node_nets_;
  std::vector<std::string> node_names_;
};

/// Views a plain graph as a hypergraph of 2-pin nets (weights preserved).
/// Lets graph-level users drive the netlist-oriented pipelines directly.
Hypergraph to_hypergraph(const Graph& g);

}  // namespace specpart::graph
