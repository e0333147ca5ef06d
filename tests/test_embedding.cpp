// Tests for the spectral embedding driver.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/graph.h"
#include "graph/hypergraph.h"
#include "graph/laplacian.h"
#include "model/assembly.h"
#include "spectral/embedding.h"
#include "util/rng.h"

namespace specpart::spectral {
namespace {

graph::Graph path(std::size_t n) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId i = 0; i + 1 < n; ++i)
    edges.push_back({i, static_cast<graph::NodeId>(i + 1), 1.0});
  return graph::Graph(n, edges);
}

/// Random connected graph Laplacian (spanning tree + extra random edges).
linalg::SymCsrMatrix random_laplacian(std::size_t n, std::size_t extra_edges,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  for (std::size_t v = 1; v < n; ++v)
    edges.push_back({static_cast<graph::NodeId>(rng.next_below(v)),
                     static_cast<graph::NodeId>(v),
                     0.5 + rng.next_double()});
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.next_below(n));
    const auto v = static_cast<graph::NodeId>(rng.next_below(n));
    if (u != v) edges.push_back({u, v, 0.5 + rng.next_double()});
  }
  return graph::build_laplacian(graph::Graph(n, edges));
}

TEST(Embedding, PathEigenvaluesKnown) {
  const std::size_t n = 16;
  EmbeddingOptions opts;
  opts.count = 4;
  const EigenBasis basis = compute_eigenbasis(path(n), opts);
  ASSERT_EQ(basis.dimension(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(M_PI * static_cast<double>(k) /
                             static_cast<double>(n));
    EXPECT_NEAR(basis.values[k], expected, 1e-8) << "k=" << k;
  }
}

TEST(Embedding, SkipTrivialDropsConstantVector) {
  EmbeddingOptions opts;
  opts.count = 1;
  opts.skip_trivial = true;
  const EigenBasis basis = compute_eigenbasis(path(10), opts);
  ASSERT_EQ(basis.dimension(), 1u);
  EXPECT_GT(basis.values[0], 1e-6);  // lambda_2, not lambda_1 = 0
  // Fiedler vector of a path is monotone.
  const linalg::Vec f = basis.vectors.col(0);
  const bool increasing = f[1] > f[0];
  for (std::size_t i = 1; i < f.size(); ++i)
    EXPECT_EQ(f[i] > f[i - 1], increasing) << "position " << i;
}

TEST(Embedding, TraceIsSumOfAllEigenvalues) {
  const graph::Graph g = path(8);
  EmbeddingOptions opts;
  opts.count = 8;
  const EigenBasis basis = compute_eigenbasis(g, opts);
  double sum = 0.0;
  for (double v : basis.values) sum += v;
  EXPECT_NEAR(basis.laplacian_trace, sum, 1e-9);
  EXPECT_NEAR(basis.laplacian_trace, 2.0 * g.total_edge_weight(), 1e-12);
}

TEST(Embedding, LanczosPathAgreesWithDense) {
  // Force the sparse path by setting a tiny dense threshold.
  const graph::Graph g = path(200);
  EmbeddingOptions dense_opts;
  dense_opts.count = 5;
  dense_opts.solver.dense_threshold = 1000;
  EmbeddingOptions sparse_opts = dense_opts;
  sparse_opts.solver.dense_threshold = 0;
  const EigenBasis a = compute_eigenbasis(g, dense_opts);
  const EigenBasis b = compute_eigenbasis(g, sparse_opts);
  ASSERT_TRUE(b.converged);
  for (std::size_t j = 0; j < 5; ++j)
    EXPECT_NEAR(a.values[j], b.values[j], 1e-6) << "pair " << j;
}

TEST(Embedding, CountClampedToN) {
  EmbeddingOptions opts;
  opts.count = 100;
  const EigenBasis basis = compute_eigenbasis(path(6), opts);
  EXPECT_EQ(basis.dimension(), 6u);
}

TEST(Embedding, VectorsAreUnitNorm) {
  EmbeddingOptions opts;
  opts.count = 3;
  const EigenBasis basis = compute_eigenbasis(path(30), opts);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(linalg::norm(basis.vectors.col(j)), 1.0, 1e-9);
}

TEST(Embedding, KrylovCountersReachBasisAndDiagnostics) {
  const linalg::SymCsrMatrix q = random_laplacian(400, 1200, 19);
  EmbeddingOptions opts;
  opts.count = 6;
  opts.solver.dense_threshold = 0;  // force the Lanczos path
  Diagnostics diag;
  const EigenBasis basis = compute_eigenbasis(q, opts, &diag);
  ASSERT_TRUE(basis.converged);
  EXPECT_EQ(basis.dimension(), 6u);
  EXPECT_NEAR(basis.values[0], 0.0, 1e-7);
  // The solve cost counters flow into the basis and the diagnostics sink.
  EXPECT_GT(basis.solve_flops, 0u);
  EXPECT_GT(basis.solve_bytes_moved, 0u);
  EXPECT_EQ(diag.counter("eigensolve", "flops"), basis.solve_flops);
  EXPECT_EQ(diag.counter("eigensolve", "matrix_bytes_moved"),
            basis.solve_bytes_moved);
}

TEST(Embedding, KrylovPathOnDegenerateNetlist) {
  // Clique-model path with pathological nets: a 0-pin net, 1-pin nets
  // (isolated pins contribute nothing), plus real nets — and vertex 9
  // appearing only in a 1-pin net, leaving it isolated (disconnected
  // Laplacian with an empty row).
  std::vector<std::vector<graph::NodeId>> nets = {
      {},               // 0-pin net
      {3},              // 1-pin net
      {9},              // 1-pin net on an otherwise isolated vertex
      {0, 1, 2, 3},     //
      {2, 3, 4, 5},     //
      {4, 5, 6, 7, 8},  //
      {0, 6, 7},        //
      {1, 8},           //
  };
  const graph::Hypergraph h(10, std::move(nets));
  const linalg::SymCsrMatrix q =
      model::build_clique_laplacian(h, model::NetModel::kStandard);

  EmbeddingOptions opts;
  opts.count = 3;
  opts.solver.dense_threshold = 0;  // force Lanczos despite n = 10
  const EigenBasis basis = compute_eigenbasis(q, opts);
  ASSERT_GE(basis.dimension(), 3u);
  // Two components (the connected core and the isolated vertex 9) give a
  // 2-dimensional kernel.
  EXPECT_NEAR(basis.values[0], 0.0, 1e-8);
  EXPECT_NEAR(basis.values[1], 0.0, 1e-8);
  EXPECT_GT(basis.values[2], 1e-6);
}

TEST(Embedding, FlatSolveRecordsLanczosPhaseCounters) {
  // A flat Lanczos solve publishes its phase times beside the V-cycle's,
  // as eigensolve.lanczos_* diagnostics counters in microseconds.
  const linalg::SymCsrMatrix q = random_laplacian(1500, 4500, 21);
  EmbeddingOptions opts;
  opts.count = 8;
  Diagnostics diag;
  const EigenBasis basis = compute_eigenbasis(q, opts, &diag);
  EXPECT_TRUE(basis.converged);
  for (const char* name :
       {"lanczos_apply_us", "lanczos_reorth_us", "lanczos_ritz_check_us"}) {
    bool present = false;
    for (const StageCounter& c : diag.counters())
      if (c.stage == "eigensolve" && c.name == name) present = true;
    EXPECT_TRUE(present) << name;
  }
  EXPECT_GT(diag.counter("eigensolve", "lanczos_reorth_us"), 0u);
}

}  // namespace
}  // namespace specpart::spectral
