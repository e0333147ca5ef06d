#include "multilevel/coarsen.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>

#include "linalg/csr.h"
#include "model/assembly.h"
#include "util/error.h"

namespace specpart::multilevel {

namespace {

constexpr std::uint32_t kUnmatched = std::numeric_limits<std::uint32_t>::max();

/// build_hierarchy's depth cap.
constexpr std::size_t kMaxLevels = 40;
/// build_hierarchy stops when a level keeps more than this fraction of its
/// fine vertices.
constexpr double kMinShrinkFactor = 0.75;

/// coarsen_hypergraph pairs on nets of at most this many pins: larger
/// nets carry diffuse connectivity and dominate the clique expansion.
constexpr std::size_t kMatchingNetCap = 32;

}  // namespace

PairMatching match_pairs(const linalg::SymCsrMatrix& fine) {
  const std::size_t n = fine.size();
  std::vector<std::uint32_t> cid(n, kUnmatched);
  std::uint32_t next = 0;

  // Pass 1: heavy-edge pairing. Ascending vertex order, each unmatched
  // vertex grabs its heaviest unmatched neighbor.
  for (std::size_t v = 0; v < n; ++v) {
    if (cid[v] != kUnmatched) continue;
    double best_w = 0.0;
    std::size_t best = n;
    for (std::size_t k = fine.row_begin(v); k < fine.row_end(v); ++k) {
      const std::size_t u = fine.col_index(k);
      if (u == v || cid[u] != kUnmatched) continue;
      const double w = -fine.value(k);  // Laplacian off-diagonal = -weight
      if (w > best_w) {
        best_w = w;
        best = u;
      }
    }
    if (best < n) {
      cid[v] = next;
      cid[best] = next;
      ++next;
    }
  }

  // Pass 2: two-hop pairing. A leftover (typically a vertex whose whole
  // neighborhood matched in pass 1) pairs with another leftover reachable
  // through any common neighbor, weighted by the lighter of the two hops.
  // This keeps clusters at size <= 2 while still shrinking star-heavy
  // regions; the alternative — absorbing leftovers into existing pairs —
  // loses low eigenvectors (see the file comment in coarsen.h).
  for (std::size_t v = 0; v < n; ++v) {
    if (cid[v] != kUnmatched) continue;
    double best_w = 0.0;
    std::size_t best = n;
    for (std::size_t k = fine.row_begin(v); k < fine.row_end(v); ++k) {
      const std::size_t u = fine.col_index(k);
      if (u == v) continue;
      const double wu = -fine.value(k);
      for (std::size_t k2 = fine.row_begin(u); k2 < fine.row_end(u); ++k2) {
        const std::size_t t = fine.col_index(k2);
        if (t == u || t == v || cid[t] != kUnmatched) continue;
        const double wt = -fine.value(k2);
        const double w2 = wu < wt ? wu : wt;
        if (w2 > best_w) {
          best_w = w2;
          best = t;
        }
      }
    }
    if (best < n) {
      cid[v] = next;
      cid[best] = next;
      ++next;
    } else {
      cid[v] = next;  // isolated (or fully surrounded): singleton cluster
      ++next;
    }
  }
  return {std::move(cid), next};
}

CoarseLevel coarsen_once(const linalg::SymCsrMatrix& fine,
                         const ParallelConfig& parallel,
                         bool galerkin_general) {
  const std::size_t n = fine.size();
  PairMatching matching = match_pairs(fine);
  const std::vector<std::uint32_t>& cid = matching.cluster_of;

  // Coarse operator through the shared assembler. Default path: stream
  // every crossing fine edge once (i < j picks one of the CSR's two
  // mirrored entries) as a positive adjacency weight; finish_laplacian
  // merges parallel edges under the stable-merge contract, negates them
  // back and splices in the weighted-degree diagonal. Intra-cluster edges
  // are dropped, which for a graph Laplacian is exactly the Galerkin
  // contraction P^T L P. General path: see the galerkin_general branch.
  linalg::CsrAssembler& assembler = linalg::thread_assembly_workspace();
  assembler.begin(matching.num_clusters);
  assembler.reserve(fine.nnz());
  linalg::CsrStorage storage;
  if (galerkin_general) {
    // Exact Galerkin contraction for a general symmetric matrix: stream
    // every stored entry — diagonals and intra-cluster entries included —
    // as the directed coarse entry (cid[i], cid[j], v) and let the generic
    // stable-merge finish sum them. The result is P^T M P verbatim; since
    // every fine row stores a diagonal, every coarse row keeps one too.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = fine.row_begin(i); k < fine.row_end(i); ++k)
        assembler.add_entry(cid[i], cid[fine.col_index(k)], fine.value(k));
    assembler.finish(storage, parallel);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = fine.row_begin(i); k < fine.row_end(i); ++k) {
        const std::size_t j = fine.col_index(k);
        if (j <= i) continue;
        if (cid[i] == cid[j]) continue;
        assembler.add_edge(cid[i], cid[j], -fine.value(k));
      }
    assembler.finish_laplacian(storage, nullptr, parallel);
  }

  CoarseLevel level;
  level.coarse_of = std::move(matching.cluster_of);
  level.lap = linalg::SymCsrMatrix(std::move(storage));
  level.fine_n = n;
  return level;
}

graph::Hypergraph coarsen_hypergraph(const graph::Hypergraph& h,
                                     const std::vector<double>& fine_weight,
                                     std::vector<std::uint32_t>* coarse_of,
                                     std::vector<double>* coarse_weight) {
  SP_ASSERT(fine_weight.size() == h.num_nodes());
  SP_ASSERT(coarse_of != nullptr && coarse_weight != nullptr);

  model::ModelBuildOptions capped;
  capped.max_net_size = kMatchingNetCap;
  PairMatching matching = match_pairs(
      model::build_clique_laplacian(h, model::NetModel::kStandard, capped));
  *coarse_of = std::move(matching.cluster_of);
  coarse_weight->assign(matching.num_clusters, 0.0);
  for (graph::NodeId v = 0; v < h.num_nodes(); ++v)
    (*coarse_weight)[(*coarse_of)[v]] += fine_weight[v];

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
  return graph::Hypergraph::from_csr(matching.num_clusters, std::move(offsets),
                                     std::move(net_pins), std::move(weights));
}

std::vector<CoarseLevel> build_hierarchy(const linalg::SymCsrMatrix& finest,
                                         const CoarsenOptions& opts) {
  std::vector<CoarseLevel> levels;
  while (true) {
    const linalg::SymCsrMatrix& cur =
        levels.empty() ? finest : levels.back().lap;
    if (cur.size() <= opts.coarsest_size || levels.size() >= kMaxLevels)
      break;
    CoarseLevel level =
        coarsen_once(cur, opts.parallel, opts.galerkin_general);
    if (static_cast<double>(level.coarse_n()) >
        kMinShrinkFactor * static_cast<double>(cur.size()))
      break;  // matching stalled; deeper levels would not pay for themselves
    levels.push_back(std::move(level));
  }
  return levels;
}

}  // namespace specpart::multilevel
