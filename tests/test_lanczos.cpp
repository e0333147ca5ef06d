// Tests for the Lanczos eigensolver, validated against the exact dense
// solver on random graph Laplacians, including disconnected graphs
// (repeated zero eigenvalues exercise the invariant-subspace restart).
#include <gtest/gtest.h>

#include <cmath>

#include "graph/graph.h"
#include "graph/laplacian.h"
#include "linalg/lanczos.h"
#include "linalg/symmetric_eigen.h"
#include "util/rng.h"
#include "util/timer.h"

namespace specpart::linalg {
namespace {

/// Random connected graph Laplacian (spanning tree + extra random edges).
SymCsrMatrix random_laplacian(std::size_t n, std::size_t extra_edges,
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

TEST(Lanczos, MatchesDenseOnSmallLaplacian) {
  const SymCsrMatrix q = random_laplacian(40, 80, 1);
  LanczosOptions opts;
  opts.num_eigenpairs = 5;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  for (std::size_t j = 0; j < 5; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-7) << "pair " << j;
}

TEST(Lanczos, FirstPairIsTrivial) {
  const SymCsrMatrix q = random_laplacian(60, 120, 2);
  LanczosOptions opts;
  opts.num_eigenpairs = 3;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], 0.0, 1e-8);
  // Trivial eigenvector is constant: all entries equal up to sign.
  const Vec v0 = r.vectors.col(0);
  for (std::size_t i = 1; i < v0.size(); ++i)
    EXPECT_NEAR(v0[i], v0[0], 1e-7);
}

TEST(Lanczos, ResidualsSmall) {
  const SymCsrMatrix q = random_laplacian(80, 160, 3);
  LanczosOptions opts;
  opts.num_eigenpairs = 6;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  for (std::size_t j = 0; j < 6; ++j) {
    const Vec v = r.vectors.col(j);
    Vec qv = q.matvec(v);
    axpy(-r.values[j], v, qv);
    EXPECT_LT(norm(qv), 1e-6 * q.gershgorin_upper()) << "pair " << j;
  }
}

TEST(Lanczos, VectorsOrthonormal) {
  const SymCsrMatrix q = random_laplacian(70, 140, 4);
  LanczosOptions opts;
  opts.num_eigenpairs = 8;
  const LanczosResult r = lanczos_smallest(q, opts);
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = a; b < 8; ++b) {
      const double g = dot(r.vectors.col(a), r.vectors.col(b));
      EXPECT_NEAR(g, a == b ? 1.0 : 0.0, 1e-7) << a << "," << b;
    }
  }
}

TEST(Lanczos, DisconnectedGraphRepeatedZeros) {
  // Two disjoint cliques: the Laplacian kernel is 2-dimensional.
  std::vector<graph::Edge> edges;
  for (graph::NodeId i = 0; i < 10; ++i)
    for (graph::NodeId j = i + 1; j < 10; ++j) edges.push_back({i, j, 1.0});
  for (graph::NodeId i = 10; i < 20; ++i)
    for (graph::NodeId j = i + 1; j < 20; ++j) edges.push_back({i, j, 1.0});
  const SymCsrMatrix q = graph::build_laplacian(graph::Graph(20, edges));
  LanczosOptions opts;
  opts.num_eigenpairs = 3;
  const LanczosResult r = lanczos_smallest(q, opts);
  EXPECT_NEAR(r.values[0], 0.0, 1e-8);
  EXPECT_NEAR(r.values[1], 0.0, 1e-8);
  EXPECT_NEAR(r.values[2], 10.0, 1e-6);  // K10 second eigenvalue = n = 10
}

TEST(Lanczos, WantMoreThanDimension) {
  const SymCsrMatrix q = random_laplacian(6, 5, 5);
  LanczosOptions opts;
  opts.num_eigenpairs = 10;  // clamped to n = 6
  const LanczosResult r = lanczos_smallest(q, opts);
  EXPECT_EQ(r.values.size(), 6u);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-7);
}

TEST(Lanczos, DeterministicForFixedSeed) {
  const SymCsrMatrix q = random_laplacian(50, 100, 6);
  LanczosOptions opts;
  opts.num_eigenpairs = 4;
  const LanczosResult a = lanczos_smallest(q, opts);
  const LanczosResult b = lanczos_smallest(q, opts);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_DOUBLE_EQ(a.values[j], b.values[j]);
}

TEST(Lanczos, LargerGraphConverges) {
  const SymCsrMatrix q = random_laplacian(1200, 3600, 7);
  LanczosOptions opts;
  opts.num_eigenpairs = 10;
  const LanczosResult r = lanczos_smallest(q, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], 0.0, 1e-7);
  for (std::size_t j = 1; j < 10; ++j) {
    EXPECT_GT(r.values[j], -1e-9);
    EXPECT_GE(r.values[j] + 1e-9, r.values[j - 1]);
  }
}

TEST(Lanczos, CountersTrackMatrixTraffic) {
  // One matvec per iteration, each streaming the whole CSR matrix once.
  const SymCsrMatrix q = random_laplacian(800, 2400, 13);
  LanczosOptions opts;
  opts.num_eigenpairs = 8;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.operator_applies, 0u);
  EXPECT_GT(r.flops, 0u);
  EXPECT_EQ(r.matrix_bytes_moved, r.operator_applies * q.stream_bytes());
}

TEST(Lanczos, PhaseTimesFitInsideTheCall) {
  // Operator applies, reorthogonalization and the Ritz work are timed
  // separately; each ran, and together they take no longer than the call.
  const SymCsrMatrix q = random_laplacian(800, 2400, 13);
  LanczosOptions opts;
  opts.num_eigenpairs = 8;
  Timer wall;
  const LanczosResult r = lanczos_smallest(q, opts);
  const double seconds = wall.seconds();
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.apply_seconds, 0.0);
  EXPECT_GT(r.reorth_seconds, 0.0);
  EXPECT_GT(r.ritz_check_seconds, 0.0);
  EXPECT_LE(r.apply_seconds + r.reorth_seconds + r.ritz_check_seconds,
            seconds);
}

TEST(LanczosLargestOp, DiagonalOperator) {
  // B = diag(1..8): largest eigenpairs are 8, 7, 6.
  const std::size_t n = 8;
  auto apply = [](const Vec& x, Vec& y) {
    y.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      y[i] = static_cast<double>(i + 1) * x[i];
  };
  LanczosOptions opts;
  opts.num_eigenpairs = 3;
  const LanczosResult r = lanczos_largest_op(n, apply, 8.0, opts);
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_NEAR(r.values[0], 8.0, 1e-8);
  EXPECT_NEAR(r.values[1], 7.0, 1e-8);
  EXPECT_NEAR(r.values[2], 6.0, 1e-8);
}

TEST(LanczosSelective, MatchesDenseOracle) {
  const SymCsrMatrix q = random_laplacian(150, 300, 21);
  LanczosOptions opts;
  opts.num_eigenpairs = 6;
  opts.reorthogonalization = Reorthogonalization::kSelective;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-6) << "pair " << j;
}

TEST(LanczosSelective, VectorsStayOrthonormal) {
  const SymCsrMatrix q = random_laplacian(400, 900, 22);
  LanczosOptions opts;
  opts.num_eigenpairs = 8;
  opts.reorthogonalization = Reorthogonalization::kSelective;
  const LanczosResult r = lanczos_smallest(q, opts);
  for (std::size_t a = 0; a < r.values.size(); ++a)
    for (std::size_t b = a; b < r.values.size(); ++b)
      EXPECT_NEAR(dot(r.vectors.col(a), r.vectors.col(b)),
                  a == b ? 1.0 : 0.0, 1e-5)
          << a << "," << b;
}

TEST(LanczosSelective, AgreesWithFullOnLargerGraph) {
  const SymCsrMatrix q = random_laplacian(1200, 3600, 7);
  LanczosOptions full;
  full.num_eigenpairs = 10;
  LanczosOptions sel = full;
  sel.reorthogonalization = Reorthogonalization::kSelective;
  const LanczosResult a = lanczos_smallest(q, full);
  const LanczosResult b = lanczos_smallest(q, sel);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_NEAR(a.values[j], b.values[j], 1e-5 * (1.0 + a.values[j]))
        << "pair " << j;
}

TEST(LanczosSelective, DisconnectedGraphStillWorks) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId i = 0; i < 10; ++i)
    for (graph::NodeId j = i + 1; j < 10; ++j) edges.push_back({i, j, 1.0});
  for (graph::NodeId i = 10; i < 20; ++i)
    for (graph::NodeId j = i + 1; j < 20; ++j) edges.push_back({i, j, 1.0});
  const SymCsrMatrix q = graph::build_laplacian(graph::Graph(20, edges));
  LanczosOptions opts;
  opts.num_eigenpairs = 3;
  opts.reorthogonalization = Reorthogonalization::kSelective;
  const LanczosResult r = lanczos_smallest(q, opts);
  EXPECT_NEAR(r.values[0], 0.0, 1e-7);
  EXPECT_NEAR(r.values[1], 0.0, 1e-7);
  EXPECT_NEAR(r.values[2], 10.0, 1e-5);
}

}  // namespace
}  // namespace specpart::linalg
