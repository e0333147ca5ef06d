#include "model/assembly.h"

#include <span>
#include <string>

#include "graph/laplacian.h"
#include "linalg/csr.h"
#include "util/error.h"

namespace specpart::model {

namespace {

constexpr const char* kModelStage = "model";

bool net_eligible(std::span<const graph::NodeId> pins,
                  std::size_t max_net_size) {
  if (pins.size() < 2) return false;
  return max_net_size == 0 || pins.size() <= max_net_size;
}

/// Checks the pair budget, then streams every eligible net's clique pairs
/// into the workspace (buffers pre-sized to the exact entry count).
/// Returns the pair count.
std::size_t admit_and_stream(const graph::Hypergraph& h, NetModel m,
                             const ModelBuildOptions& opts, Diagnostics* diag,
                             linalg::CsrAssembler& ws) {
  const std::size_t pairs = clique_pair_count(h, opts.max_net_size);
  if (opts.max_clique_pairs > 0 && pairs > opts.max_clique_pairs) {
    const std::string message =
        "model_too_large: clique expansion needs " + std::to_string(pairs) +
        " pairs, budget " + std::to_string(opts.max_clique_pairs) + " (" +
        std::to_string(h.num_nets()) + " nets, " +
        std::to_string(h.num_pins()) + " pins)";
    if (diag != nullptr) diag->warn(kModelStage, message);
    throw Error(message);
  }
  ws.begin(h.num_nodes());
  ws.reserve(pairs * 2);  // add_edge stores both directions
  for (graph::NetId e = 0; e < h.num_nets(); ++e) {
    const auto& pins = h.net(e);
    if (!net_eligible(pins, opts.max_net_size)) continue;
    const double cost = h.net_weight(e) * clique_edge_cost(m, pins.size());
    for (std::size_t i = 0; i < pins.size(); ++i)
      for (std::size_t j = i + 1; j < pins.size(); ++j)
        ws.add_edge(pins[i], pins[j], cost);
  }
  return pairs;
}

}  // namespace

std::size_t clique_pair_count(const graph::Hypergraph& h,
                              std::size_t max_net_size) {
  std::size_t pairs = 0;
  for (graph::NetId e = 0; e < h.num_nets(); ++e) {
    const auto& pins = h.net(e);
    if (!net_eligible(pins, max_net_size)) continue;
    pairs += pins.size() * (pins.size() - 1) / 2;
  }
  return pairs;
}

linalg::SymCsrMatrix build_clique_laplacian(const graph::Hypergraph& h,
                                            NetModel m,
                                            const ModelBuildOptions& opts,
                                            Diagnostics* diag) {
  linalg::CsrAssembler& ws = linalg::thread_assembly_workspace();
  admit_and_stream(h, m, opts, diag, ws);
  linalg::CsrStorage q;
  ws.finish_laplacian(q, nullptr, opts.parallel);
  return linalg::SymCsrMatrix(std::move(q));
}

graph::Graph expand_clique_graph(const graph::Hypergraph& h, NetModel m,
                                 const ModelBuildOptions& opts,
                                 Diagnostics* diag) {
  linalg::CsrAssembler& ws = linalg::thread_assembly_workspace();
  admit_and_stream(h, m, opts, diag, ws);
  return graph::Graph(h.num_nodes(), ws, opts.parallel);
}

CliqueModel::CliqueModel(const graph::Hypergraph& h, NetModel m,
                         ModelBuildOptions opts)
    : hypergraph_(&h), model_(m), opts_(opts) {}

const linalg::SymCsrMatrix& CliqueModel::laplacian(Diagnostics* diag) const {
  if (!laplacian_.has_value()) {
    StageTimerScope timer(diag, kModelStage);
    if (graph_.has_value()) {
      laplacian_.emplace(graph::build_laplacian(*graph_));
    } else {
      laplacian_.emplace(
          build_clique_laplacian(*hypergraph_, model_, opts_, diag));
    }
  }
  return *laplacian_;
}

const linalg::SymCsrMatrix& CliqueModel::operator_matrix(
    linalg::ObjectiveModel objective, Diagnostics* diag) const {
  if (objective == linalg::ObjectiveModel::kUnnormalized)
    return laplacian(diag);
  if (!normalized_.has_value()) {
    const linalg::SymCsrMatrix& q = laplacian(diag);
    StageTimerScope timer(diag, kModelStage);
    normalized_.emplace(linalg::normalized_laplacian(q));
  }
  return *normalized_;
}

const graph::Graph& CliqueModel::graph(Diagnostics* diag) const {
  if (!graph_.has_value()) {
    StageTimerScope timer(diag, kModelStage);
    if (laplacian_.has_value()) {
      graph_.emplace(graph::adjacency_graph(*laplacian_));
    } else {
      graph_.emplace(expand_clique_graph(*hypergraph_, model_, opts_, diag));
    }
  }
  return *graph_;
}

}  // namespace specpart::model
