// Heavy-edge coarsening: the one pairing primitive behind both multilevel
// schemes — the multilevel eigensolver (vcycle.h) and the multilevel FM
// baseline (part/multilevel.h).
//
// match_pairs pairs the vertices of a Laplacian-like matrix by heavy-edge
// matching on its off-diagonal weights — the net-aware weights the clique
// model assigned — followed by a two-hop pass that pairs leftover vertices
// through a common neighbor (the METIS-style rescue for star-heavy
// netlists, where plain matching strands most vertices). Clusters never
// exceed two vertices: larger aggregates visibly distort the coarse
// spectrum and silently *lose* low eigenvectors — a failure converged Ritz
// residuals cannot detect, because the refined basis converges cleanly to
// the wrong invariant subspace.
//
// The V-cycle contracts the matrix itself (coarsen_once, build_hierarchy);
// the FM baseline contracts the netlist (coarsen_hypergraph), pairing on
// its standard-clique Laplacian.
//
// The coarse operator is the Galerkin projection P^T L P under the
// piecewise-constant prolongation P (fine vertex r maps to coarse vertex
// coarse_of[r] with unit weight), which for a graph Laplacian is *exactly*
// the Laplacian of the contracted graph: intra-cluster edges vanish,
// parallel inter-cluster edges sum. It is assembled through the shared CSR
// assembler (linalg/csr.h) under its stable-merge contract, so the coarse
// matrix is bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/hypergraph.h"
#include "linalg/sparse.h"
#include "util/parallel.h"

namespace specpart::multilevel {

/// One coarsening step: the fine-to-coarse vertex map and the coarse
/// Laplacian. The prolongation is implicit — P x_c is x_c[coarse_of[r]] —
/// so no interpolation matrix is ever stored.
struct CoarseLevel {
  /// fine vertex -> coarse vertex (cluster id). Clusters have size <= 2.
  std::vector<std::uint32_t> coarse_of;
  /// Galerkin coarse Laplacian = Laplacian of the contracted graph.
  linalg::SymCsrMatrix lap;
  /// Vertex count of the fine matrix this level contracted.
  std::size_t fine_n = 0;

  std::size_t coarse_n() const { return lap.size(); }
};

struct CoarsenOptions {
  /// Stop coarsening once this few vertices remain.
  std::size_t coarsest_size = 400;
  /// Threading for the coarse-matrix assembly merge (the matching itself
  /// is serial by construction — its greedy order is part of the output).
  ParallelConfig parallel;
  /// General Galerkin contraction: stream *every* fine entry (diagonals
  /// and intra-cluster entries included) through the generic stable-merge
  /// finish, yielding P^T M P exactly for any symmetric M — required for
  /// the normalized operator D^{-1/2} L D^{-1/2}, whose coarse operator is
  /// NOT the contracted graph's Laplacian. The default (false) keeps the
  /// contracted-graph finish_laplacian path, which is byte-identical to
  /// the pre-objective code for plain Laplacians.
  bool galerkin_general = false;
};

/// A pairing of fine vertices into clusters of one or two.
struct PairMatching {
  /// fine vertex -> cluster id, ids 0..num_clusters-1 in the order the
  /// clusters formed (heavy-edge pairs, then two-hop pairs and singletons).
  std::vector<std::uint32_t> cluster_of;
  std::size_t num_clusters = 0;
};

/// Heavy-edge + two-hop pairing over `fine` (a Laplacian-like symmetric
/// matrix: off-diagonal entries are negated connection weights, which
/// holds for both L and the normalized D^{-1/2} L D^{-1/2}).
/// Deterministic: both passes scan vertices in ascending order and ties
/// break toward the first-seen heaviest neighbor, which is the smallest id.
PairMatching match_pairs(const linalg::SymCsrMatrix& fine);

/// One coarsening step over `fine`: match_pairs, then the Galerkin
/// contraction. `galerkin_general` selects the exact P^T M P contraction
/// (see CoarsenOptions).
CoarseLevel coarsen_once(const linalg::SymCsrMatrix& fine,
                         const ParallelConfig& parallel = {},
                         bool galerkin_general = false);

/// One coarsening step of a netlist (the multilevel FM baseline's):
/// match_pairs on the standard-clique Laplacian of `h` over nets of at
/// most 32 pins, then each net projected onto the clusters — dropped when
/// it collapses into one, merged with its duplicates by summed weight — so
/// a coarse partition cuts the same net weight as its projection. Fills
/// `coarse_of` (fine vertex -> match_pairs' cluster id) and
/// `coarse_weight` (coarse vertex -> total fine weight).
graph::Hypergraph coarsen_hypergraph(const graph::Hypergraph& h,
                                     const std::vector<double>& fine_weight,
                                     std::vector<std::uint32_t>* coarse_of,
                                     std::vector<double>* coarse_weight);

/// Full hierarchy: repeated coarsen_once until coarsest_size, a depth of
/// 40 levels, or a matching stall (a level keeping more than 3/4 of its
/// vertices). levels[0] contracts `finest`; levels[k] contracts
/// levels[k-1].lap. May return an empty vector (finest is already small).
std::vector<CoarseLevel> build_hierarchy(const linalg::SymCsrMatrix& finest,
                                         const CoarsenOptions& opts = {});

}  // namespace specpart::multilevel
