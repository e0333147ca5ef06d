// Tests for the block Lanczos driver and the backend dispatch
// (linalg::solve_smallest).
//
// Validated against the exact dense solver on random graph Laplacians
// (eigenvalues and principal angles of the computed subspace), on
// degenerate inputs (d >= n, disconnected graphs, netlists with 0/1-pin
// nets via the clique-model path), and on the two backend contracts: the
// scalar backend is byte-identical to a direct lanczos_smallest call, and
// the block backend is bit-identical for every thread count (this binary
// also runs as test_block_lanczos_mt under SPECPART_THREADS=8, making the
// "auto" lane below an 8-thread lane).
#include <gtest/gtest.h>

#include <cmath>

#include "graph/graph.h"
#include "graph/hypergraph.h"
#include "graph/laplacian.h"
#include "linalg/band_eigen.h"
#include "linalg/block_lanczos.h"
#include "linalg/eigensolver.h"
#include "linalg/lanczos.h"
#include "linalg/symmetric_eigen.h"
#include "model/assembly.h"
#include "spectral/embedding.h"
#include "util/rng.h"

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

TEST(BlockLanczos, MatchesDenseOnSmallLaplacian) {
  const SymCsrMatrix q = random_laplacian(40, 80, 1);
  BlockLanczosOptions opts;
  opts.num_eigenpairs = 5;
  const LanczosResult r = block_lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  for (std::size_t j = 0; j < 5; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-7) << "pair " << j;
}

TEST(BlockLanczos, ResidualsSmall) {
  const SymCsrMatrix q = random_laplacian(80, 160, 3);
  BlockLanczosOptions opts;
  opts.num_eigenpairs = 6;
  const LanczosResult r = block_lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  for (std::size_t j = 0; j < 6; ++j) {
    const Vec v = r.vectors.col(j);
    Vec qv = q.matvec(v);
    axpy(-r.values[j], v, qv);
    EXPECT_LT(norm(qv), 1e-6 * q.gershgorin_upper()) << "pair " << j;
  }
}

TEST(BlockLanczos, VectorsOrthonormal) {
  const SymCsrMatrix q = random_laplacian(70, 140, 4);
  BlockLanczosOptions opts;
  opts.num_eigenpairs = 8;
  const LanczosResult r = block_lanczos_smallest(q, opts);
  for (std::size_t a = 0; a < 8; ++a)
    for (std::size_t b = a; b < 8; ++b)
      EXPECT_NEAR(dot(r.vectors.col(a), r.vectors.col(b)),
                  a == b ? 1.0 : 0.0, 1e-7)
          << a << "," << b;
}

TEST(BlockLanczos, PrincipalAnglesVsDenseSubspace) {
  // The computed d-dimensional subspace must align with the dense solver's:
  // with C = U_dense^T U_block, all principal-angle cosines (the singular
  // values of C) are near 1 iff C^T C is near the identity.
  const SymCsrMatrix q = random_laplacian(60, 150, 9);
  const std::size_t d = 5;
  BlockLanczosOptions opts;
  opts.num_eigenpairs = d;
  const LanczosResult r = block_lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  DenseMatrix c(d, d);
  for (std::size_t a = 0; a < d; ++a)
    for (std::size_t b = 0; b < d; ++b)
      c.at(a, b) = dot(exact.vectors.col(a), r.vectors.col(b));
  const DenseMatrix gram = c.transposed().multiply(c);
  EXPECT_LT(gram.max_abs_diff(DenseMatrix::identity(d)), 1e-5);
}

TEST(BlockLanczos, WantMoreThanDimension) {
  const SymCsrMatrix q = random_laplacian(6, 5, 5);
  BlockLanczosOptions opts;
  opts.num_eigenpairs = 10;  // clamped to n = 6; basis spans R^6 -> exact
  const LanczosResult r = block_lanczos_smallest(q, opts);
  ASSERT_EQ(r.values.size(), 6u);
  EXPECT_TRUE(r.converged);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-7);
}

TEST(BlockLanczos, DisconnectedGraphRepeatedZeros) {
  // Two disjoint K10s: the kernel is 2-dimensional; the width->=2 block
  // captures the multiplicity without needing a breakdown restart per
  // direction.
  std::vector<graph::Edge> edges;
  for (graph::NodeId i = 0; i < 10; ++i)
    for (graph::NodeId j = i + 1; j < 10; ++j) edges.push_back({i, j, 1.0});
  for (graph::NodeId i = 10; i < 20; ++i)
    for (graph::NodeId j = i + 1; j < 20; ++j) edges.push_back({i, j, 1.0});
  const SymCsrMatrix q = graph::build_laplacian(graph::Graph(20, edges));
  BlockLanczosOptions opts;
  opts.num_eigenpairs = 3;
  const LanczosResult r = block_lanczos_smallest(q, opts);
  EXPECT_NEAR(r.values[0], 0.0, 1e-8);
  EXPECT_NEAR(r.values[1], 0.0, 1e-8);
  EXPECT_NEAR(r.values[2], 10.0, 1e-6);  // K10 second eigenvalue = n = 10
}

TEST(BlockLanczos, BitIdenticalAcrossThreadCounts) {
  // Every reduction in the block driver uses the fixed-block deterministic
  // kernels, so 1 thread, 2 threads and the auto lane (8 threads in the
  // test_block_lanczos_mt ctest run) must agree bitwise.
  const SymCsrMatrix q = random_laplacian(300, 900, 11);
  BlockLanczosOptions opts;
  opts.num_eigenpairs = 6;
  opts.parallel = ParallelConfig::with_threads(1);
  const LanczosResult one = block_lanczos_smallest(q, opts);
  opts.parallel = ParallelConfig::with_threads(2);
  const LanczosResult two = block_lanczos_smallest(q, opts);
  opts.parallel = ParallelConfig::with_threads(0);  // $SPECPART_THREADS
  const LanczosResult autod = block_lanczos_smallest(q, opts);
  ASSERT_EQ(one.values.size(), two.values.size());
  ASSERT_EQ(one.values.size(), autod.values.size());
  for (std::size_t j = 0; j < one.values.size(); ++j) {
    EXPECT_EQ(one.values[j], two.values[j]) << "pair " << j;
    EXPECT_EQ(one.values[j], autod.values[j]) << "pair " << j;
  }
  EXPECT_EQ(one.vectors.max_abs_diff(two.vectors), 0.0);
  EXPECT_EQ(one.vectors.max_abs_diff(autod.vectors), 0.0);
  EXPECT_EQ(one.iterations, two.iterations);
  EXPECT_EQ(one.matrix_bytes_moved, two.matrix_bytes_moved);
}

TEST(BlockLanczos, CountersTrackMatrixTraffic) {
  const SymCsrMatrix q = random_laplacian(800, 2400, 13);
  const std::size_t d = 8;

  BlockLanczosOptions bopts;
  bopts.num_eigenpairs = d;
  const LanczosResult block = block_lanczos_smallest(q, bopts);
  ASSERT_TRUE(block.converged);
  EXPECT_GT(block.operator_applies, 0u);
  EXPECT_GT(block.flops, 0u);
  EXPECT_GT(block.matrix_bytes_moved, 0u);
  // One stream of the matrix serves a whole panel: bytes = sweeps x size.
  EXPECT_EQ(block.matrix_bytes_moved % q.stream_bytes(), 0u);

  LanczosOptions sopts;
  sopts.num_eigenpairs = d;
  const LanczosResult scalar = lanczos_smallest(q, sopts);
  ASSERT_TRUE(scalar.converged);
  EXPECT_EQ(scalar.matrix_bytes_moved,
            scalar.operator_applies * q.stream_bytes());

  // The headline contract: the block backend moves at least 2x fewer
  // Laplacian bytes per converged eigenpair than the scalar matvec chain.
  const double scalar_bpp = static_cast<double>(scalar.matrix_bytes_moved) /
                            static_cast<double>(scalar.num_converged);
  const double block_bpp = static_cast<double>(block.matrix_bytes_moved) /
                           static_cast<double>(block.num_converged);
  EXPECT_GE(scalar_bpp, 2.0 * block_bpp)
      << "scalar bytes/pair " << scalar_bpp << " vs block " << block_bpp;
}

TEST(EigenSolverApi, ScalarBackendByteIdenticalToDirectLanczos) {
  const SymCsrMatrix q = random_laplacian(150, 400, 17);
  const std::size_t d = 6;
  const std::uint64_t seed = 0xABCDEFULL;

  // The embedding driver's first attempt: automatic Krylov cap.
  const LanczosResult via_api = solve_smallest(
      q, SolverBackend::kScalar, d, seed, 0, ParallelConfig{}, nullptr);

  LanczosOptions direct;
  direct.num_eigenpairs = d;
  direct.tolerance = kSolverTolerance;
  direct.seed = seed;
  const LanczosResult expected = lanczos_smallest(q, direct);

  ASSERT_EQ(via_api.values.size(), expected.values.size());
  for (std::size_t j = 0; j < expected.values.size(); ++j)
    EXPECT_EQ(via_api.values[j], expected.values[j]) << "pair " << j;
  EXPECT_EQ(via_api.vectors.max_abs_diff(expected.vectors), 0.0);
  EXPECT_EQ(via_api.iterations, expected.iterations);
  EXPECT_EQ(via_api.converged, expected.converged);
}

TEST(EigenSolverApi, BlockBackendThroughEmbedding) {
  const SymCsrMatrix q = random_laplacian(400, 1200, 19);
  spectral::EmbeddingOptions eopts;
  eopts.count = 6;
  eopts.solver.backend = SolverBackend::kBlock;
  eopts.solver.dense_threshold = 0;  // force the iterative path
  Diagnostics diag;
  const spectral::EigenBasis basis =
      spectral::compute_eigenbasis(q, eopts, &diag);
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

TEST(EigenSolverApi, BlockBackendOnDegenerateNetlists) {
  // Clique-model path with pathological nets: a 0-pin net, 1-pin nets
  // (isolated pins contribute nothing), plus real nets — and vertex 9
  // appearing only in a 1-pin net, leaving it isolated (disconnected
  // Laplacian with an empty row).
  std::vector<std::vector<graph::NodeId>> nets = {
      {},                    // 0-pin net
      {3},                   // 1-pin net
      {9},                   // 1-pin net on an otherwise isolated vertex
      {0, 1, 2, 3},          //
      {2, 3, 4, 5},          //
      {4, 5, 6, 7, 8},       //
      {0, 6, 7},             //
      {1, 8},                //
  };
  const graph::Hypergraph h(10, std::move(nets));
  const SymCsrMatrix q =
      model::build_clique_laplacian(h, model::NetModel::kStandard);

  spectral::EmbeddingOptions eopts;
  eopts.count = 3;
  eopts.solver.backend = SolverBackend::kBlock;
  eopts.solver.dense_threshold = 0;  // force block Lanczos despite n = 10
  const spectral::EigenBasis basis = spectral::compute_eigenbasis(q, eopts);
  ASSERT_GE(basis.dimension(), 3u);
  // Two components (the connected core and the isolated vertex 9) give a
  // 2-dimensional kernel.
  EXPECT_NEAR(basis.values[0], 0.0, 1e-8);
  EXPECT_NEAR(basis.values[1], 0.0, 1e-8);
  EXPECT_GT(basis.values[2], 1e-6);
}

/// Random symmetric band matrix plus its dense mirror, for oracle checks
/// of the spectrum slicer the block solver's convergence checks run on.
std::pair<BandMatrix, DenseMatrix> random_band(std::size_t n, std::size_t bw,
                                               std::uint64_t seed) {
  Rng rng(seed);
  BandMatrix a(n, bw);
  DenseMatrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k <= std::min(i, bw); ++k) {
      a.at(i, k) = rng.next_normal();
      d.at(i, i - k) = a.at(i, k);
      d.at(i - k, i) = a.at(i, k);
    }
  return {std::move(a), std::move(d)};
}

TEST(BandEigen, MatchesDenseOnRandomBandMatrix) {
  const auto [a, d] = random_band(90, 5, 21);
  const std::size_t count = 7;
  const BandEigenPairs top = band_eigen_largest(a, count);
  ASSERT_TRUE(top.ok);
  ASSERT_EQ(top.values.size(), count);
  const EigenDecomposition exact = solve_symmetric_eigen(d);  // ascending
  const double scale = std::abs(exact.values.back()) + 1.0;
  for (std::size_t j = 0; j < count; ++j) {
    // values are the largest, descending.
    EXPECT_NEAR(top.values[j], exact.values[90 - 1 - j], 1e-10 * scale)
        << "pair " << j;
    // Residual-certified eigenvectors: ||A v - lambda v|| tiny.
    const Vec v = top.vectors.col(j);
    Vec av = d.matvec(v);
    axpy(-top.values[j], v, av);
    EXPECT_LT(norm(av), 1e-8 * scale) << "pair " << j;
  }
  for (std::size_t x = 0; x < count; ++x)
    for (std::size_t y = x; y < count; ++y)
      EXPECT_NEAR(dot(top.vectors.col(x), top.vectors.col(y)),
                  x == y ? 1.0 : 0.0, 1e-9)
          << x << "," << y;
}

TEST(BandEigen, RepeatedEigenvaluesFromTwinBlocks) {
  // Two identical uncoupled diagonal blocks: every eigenvalue appears
  // twice, exercising the cluster path of the inverse iteration (shifted
  // solves + in-cluster orthogonalization).
  const std::size_t half = 40, bw = 3, n = 2 * half;
  const auto [block, bd] = random_band(half, bw, 33);
  BandMatrix a(n, bw);
  DenseMatrix d(n, n);
  for (std::size_t i = 0; i < half; ++i)
    for (std::size_t k = 0; k <= std::min(i, bw); ++k) {
      a.at(i, k) = block.at(i, k);
      a.at(half + i, k) = block.at(i, k);
      d.at(i, i - k) = d.at(i - k, i) = block.at(i, k);
      d.at(half + i, half + i - k) = block.at(i, k);
      d.at(half + i - k, half + i) = block.at(i, k);
    }
  const std::size_t count = 8;
  const BandEigenPairs top = band_eigen_largest(a, count);
  ASSERT_TRUE(top.ok);
  const EigenDecomposition exact = solve_symmetric_eigen(d);
  const double scale = std::abs(exact.values.back()) + 1.0;
  for (std::size_t j = 0; j < count; ++j)
    EXPECT_NEAR(top.values[j], exact.values[n - 1 - j], 1e-9 * scale)
        << "pair " << j;
  // Doubled spectrum: pairs (0,1), (2,3), ... share their eigenvalue...
  for (std::size_t j = 0; j + 1 < count; j += 2)
    EXPECT_NEAR(top.values[j], top.values[j + 1], 1e-9 * scale);
  // ...and the returned cluster vectors must still be orthonormal.
  for (std::size_t x = 0; x < count; ++x)
    for (std::size_t y = x; y < count; ++y)
      EXPECT_NEAR(dot(top.vectors.col(x), top.vectors.col(y)),
                  x == y ? 1.0 : 0.0, 1e-8)
          << x << "," << y;
}

TEST(EigenSolverApi, BlockBackendDeterministicForFixedSeed) {
  const SymCsrMatrix q = random_laplacian(200, 500, 23);
  BlockLanczosOptions opts;
  opts.num_eigenpairs = 4;
  const LanczosResult a = block_lanczos_smallest(q, opts);
  const LanczosResult b = block_lanczos_smallest(q, opts);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_DOUBLE_EQ(a.values[j], b.values[j]);
  EXPECT_EQ(a.vectors.max_abs_diff(b.vectors), 0.0);
}

}  // namespace
}  // namespace specpart::linalg
