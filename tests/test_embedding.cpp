// Tests for the spectral embedding driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>

#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"
#include "graph/laplacian.h"
#include "linalg/symmetric_eigen.h"
#include "model/assembly.h"
#include "multilevel/vcycle.h"
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

// --- The dense decomposition as the oracle of every solve path -----------

/// Largest basis width the oracle test picks.
constexpr std::size_t kOracleMaxD = 12;

/// One generated netlist's operator under one objective, with the dense
/// decomposition's smallest kOracleMaxD + 1 pairs. Built once and shared
/// by every path compared against it.
struct DenseOracle {
  linalg::SymCsrMatrix op;
  linalg::EigenDecomposition dense;
};

const DenseOracle& dense_oracle(std::uint64_t seed,
                                linalg::ObjectiveModel objective) {
  static std::map<std::pair<std::uint64_t, linalg::ObjectiveModel>,
                  DenseOracle>
      oracles;
  const auto key = std::make_pair(seed, objective);
  auto it = oracles.find(key);
  if (it == oracles.end()) {
    // n = 600 is above the dense threshold and the V-cycle's coarsest
    // size, so both iterative paths run and the V-cycle coarsens.
    graph::GeneratorConfig cfg;
    cfg.num_modules = 600;
    cfg.num_nets = 700;
    cfg.seed = seed;
    const graph::Hypergraph h = graph::generate_netlist(cfg);
    const model::CliqueModel cm(h, model::NetModel::kPartitioningSpecific);
    DenseOracle o{cm.operator_matrix(objective), {}};
    o.dense = linalg::solve_symmetric_eigen_smallest(o.op.to_dense(),
                                                     kOracleMaxD + 1);
    it = oracles.emplace(key, std::move(o)).first;
  }
  return it->second;
}

/// Largest singular value of a tall matrix with few columns, from the
/// eigenvalues of its Gram matrix.
double spectral_norm(const linalg::DenseMatrix& m) {
  const linalg::DenseMatrix gram = m.transposed().multiply(m);
  const linalg::EigenDecomposition e = linalg::solve_symmetric_eigen(gram);
  return std::sqrt(std::max(0.0, e.values.back()));
}

class EveryPathMatchesDense
    : public ::testing::TestWithParam<
          std::tuple<linalg::SolverStrategy, linalg::ObjectiveModel>> {};

TEST_P(EveryPathMatchesDense, EigenvaluesAndSubspace) {
  const auto [strategy, objective] = GetParam();
  const bool multilevel = strategy == linalg::SolverStrategy::kMultilevel;
  // The residual each path certifies, relative to the Gershgorin scale.
  const double tolerance =
      multilevel ? multilevel::kRefineTolerance : linalg::kSolverTolerance;
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE(testing::Message() << "netlist seed " << seed);
    const DenseOracle& oracle = dense_oracle(seed, objective);
    const linalg::Vec& lambda = oracle.dense.values;
    const std::size_t n = oracle.op.size();
    const double scale = oracle.op.gershgorin_upper();

    // d in [6, kOracleMaxD] where the dense gap lambda_{d+1} - lambda_d is
    // widest relative to lambda_{d+1}, so the subspace is well separated.
    std::size_t d = 6;
    for (std::size_t c = 7; c <= kOracleMaxD; ++c)
      if ((lambda[c] - lambda[c - 1]) / lambda[c] >
          (lambda[d] - lambda[d - 1]) / lambda[d])
        d = c;
    SCOPED_TRACE(testing::Message() << "d = " << d);

    EmbeddingOptions opts;
    opts.count = d;
    opts.solver.strategy = strategy;
    if (!multilevel) opts.solver.dense_threshold = 0;
    opts.objective = objective;
    Diagnostics diag;
    const EigenBasis basis = compute_eigenbasis(oracle.op, opts, &diag);
    ASSERT_TRUE(basis.converged);
    ASSERT_EQ(basis.dimension(), d);
    // The path under test produced the basis: no reseed, no flat fallback
    // from the V-cycle, no dense fallback.
    EXPECT_EQ(diag.stage_fallbacks("eigensolve"), 0u);
    if (multilevel) {
      EXPECT_GE(diag.counter("eigensolve", "multilevel_levels"), 1u);
      EXPECT_LT(diag.counter("eigensolve", "multilevel_coarsest_n"), n);
    }

    // Residual R = Q U - U diag(theta); each column within the path's
    // certificate, and each eigenvalue within it too.
    linalg::DenseMatrix residual(n, d);
    for (std::size_t j = 0; j < d; ++j) {
      const linalg::Vec u = basis.vectors.col(j);
      linalg::Vec r = oracle.op.matvec(u);
      linalg::axpy(-basis.values[j], u, r);
      EXPECT_LE(linalg::norm(r), tolerance * scale) << "pair " << j;
      residual.set_col(j, r);
      EXPECT_NEAR(basis.values[j], lambda[j], tolerance * scale)
          << "pair " << j;
    }

    // Davis-Kahan: sin of the largest principal angle between span(U) and
    // the dense span(V) is at most ||R|| / gap, with the gap between the
    // largest computed value and lambda_{d+1}.
    linalg::DenseMatrix v(n, d);
    for (std::size_t j = 0; j < d; ++j)
      v.set_col(j, oracle.dense.vectors.col(j));
    const linalg::DenseMatrix vtu = v.transposed().multiply(basis.vectors);
    const linalg::DenseMatrix proj = v.multiply(vtu);
    linalg::DenseMatrix outside(n, d);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < d; ++j)
        outside.at(i, j) = basis.vectors.at(i, j) - proj.at(i, j);
    const double gap = lambda[d] - basis.values[d - 1];
    ASSERT_GT(gap, 0.0);
    const double sin_max = spectral_norm(outside);
    const double bound = spectral_norm(residual) / gap;
    EXPECT_LE(sin_max, bound * (1.0 + 1e-6) + 1e-10) << "gap = " << gap;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlatAndVcycle, EveryPathMatchesDense,
    ::testing::Combine(
        ::testing::Values(linalg::SolverStrategy::kFlat,
                          linalg::SolverStrategy::kMultilevel),
        ::testing::Values(linalg::ObjectiveModel::kUnnormalized,
                          linalg::ObjectiveModel::kNormalizedSymmetric)));

}  // namespace
}  // namespace specpart::spectral
