// Tests for the multilevel eigensolver: coarsening (Galerkin conservation,
// prolongation round-trip, hierarchy shape, the FM baseline's netlist
// coarsening through the same pairing), the V-cycle (per-level Ritz
// residual certification, eigenvalue agreement with the dense solver,
// degenerate netlists), the end-to-end pipeline contract (MELO cut quality
// within tolerance of the flat strategy, flat fallback on an unmet
// refinement tolerance), and bit-identity across kernel thread counts
// (this binary also runs as test_multilevel_mt under SPECPART_THREADS=8,
// making the "auto" lane below an 8-thread lane), plus bit-for-bit
// differential tests of the V-cycle's panel kernels against test-local
// copies of the strided code they replaced, and of the kernels' AVX2 clone
// against their baseline clone (util/simd.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/drivers.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"
#include "graph/laplacian.h"
#include "linalg/lanczos.h"
#include "linalg/panel_ops.h"
#include "linalg/symmetric_eigen.h"
#include "model/assembly.h"
#include "model/clique_models.h"
#include "multilevel/coarsen.h"
#include "multilevel/vcycle.h"
#include "spectral/embedding.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/simd.h"

namespace specpart::multilevel {
namespace {

using linalg::DenseMatrix;
using linalg::Panel;
using linalg::SymCsrMatrix;
using linalg::Vec;

#ifdef SPECPART_FAULT_INJECTION
constexpr bool kFaultsCompiled = true;
#else
constexpr bool kFaultsCompiled = false;
#endif

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

graph::Hypergraph bench_netlist(std::size_t modules, std::uint64_t seed) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 10;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

SymCsrMatrix netlist_laplacian(std::size_t modules, std::uint64_t seed) {
  return graph::build_laplacian(model::clique_expand(
      bench_netlist(modules, seed), model::NetModel::kPartitioningSpecific));
}

TEST(Coarsen, GalerkinCoarseLaplacianMatchesTripletReference) {
  // The coarse operator must be exactly P^T L P under the
  // piecewise-constant prolongation — equivalently the Laplacian of the
  // contracted graph built by summing inter-cluster edge weights through
  // the plain triplet route.
  const SymCsrMatrix q = random_laplacian(300, 900, 7);
  const CoarseLevel lev = coarsen_once(q);
  const std::size_t nc = lev.coarse_n();
  ASSERT_EQ(lev.fine_n, 300u);
  ASSERT_EQ(lev.coarse_of.size(), 300u);
  ASSERT_LT(nc, 300u);

  // Cluster ids valid, cluster sizes never above two (larger aggregates
  // silently lose low eigenvectors — see coarsen.h).
  std::vector<std::size_t> cluster_size(nc, 0);
  for (const std::uint32_t c : lev.coarse_of) {
    ASSERT_LT(c, nc);
    ++cluster_size[c];
  }
  for (std::size_t c = 0; c < nc; ++c) {
    EXPECT_GE(cluster_size[c], 1u);
    EXPECT_LE(cluster_size[c], 2u);
  }

  // Dense Galerkin reference: ref = P^T L P, entry by entry.
  const DenseMatrix ld = q.to_dense();
  DenseMatrix ref(nc, nc);
  for (std::size_t i = 0; i < 300; ++i)
    for (std::size_t j = 0; j < 300; ++j)
      ref.at(lev.coarse_of[i], lev.coarse_of[j]) += ld.at(i, j);
  const DenseMatrix coarse = lev.lap.to_dense();
  EXPECT_LT(coarse.max_abs_diff(ref), 1e-10);

  // A Laplacian stays a Laplacian: zero row sums, nonnegative diagonal.
  for (std::size_t i = 0; i < nc; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < nc; ++j) row += coarse.at(i, j);
    EXPECT_NEAR(row, 0.0, 1e-9) << "row " << i;
    EXPECT_GE(coarse.at(i, i), 0.0);
  }
}

TEST(Coarsen, ProlongationRestrictionRoundTrip) {
  // Restriction after prolongation multiplies each coarse entry by its
  // cluster size: P^T P = diag(|cluster|). With sizes 1 and 2 the sums
  // are exact in floating point, so the round-trip is equality, not
  // approximation.
  const SymCsrMatrix q = random_laplacian(200, 500, 11);
  const CoarseLevel lev = coarsen_once(q);
  const std::size_t nc = lev.coarse_n();

  Rng rng(3);
  Vec xc(nc);
  for (double& v : xc) v = rng.next_normal();

  Vec xf(lev.fine_n);
  for (std::size_t r = 0; r < lev.fine_n; ++r) xf[r] = xc[lev.coarse_of[r]];

  Vec back(nc, 0.0);
  std::vector<std::size_t> cluster_size(nc, 0);
  for (std::size_t r = 0; r < lev.fine_n; ++r) {
    back[lev.coarse_of[r]] += xf[r];
    ++cluster_size[lev.coarse_of[r]];
  }
  for (std::size_t c = 0; c < nc; ++c)
    EXPECT_EQ(back[c], static_cast<double>(cluster_size[c]) * xc[c])
        << "cluster " << c;
}

TEST(Coarsen, HierarchyReachesTheConfiguredFloor) {
  const SymCsrMatrix q = netlist_laplacian(2000, 1234);
  CoarsenOptions opts;
  opts.coarsest_size = 400;
  const std::vector<CoarseLevel> levels = build_hierarchy(q, opts);
  ASSERT_FALSE(levels.empty());
  // Each level genuinely shrinks; pair matching halves at best.
  std::size_t fine_n = q.size();
  for (const CoarseLevel& lev : levels) {
    EXPECT_EQ(lev.fine_n, fine_n);
    EXPECT_LT(lev.coarse_n(), fine_n);
    EXPECT_GE(2 * lev.coarse_n(), fine_n);
    fine_n = lev.coarse_n();
  }
  // The coarsest level lies in the window the floor targets (matching can
  // overshoot the floor by at most a factor of two).
  EXPECT_LE(levels.back().coarse_n(), opts.coarsest_size);
  EXPECT_GE(2 * levels.back().coarse_n(), opts.coarsest_size);
}

/// Star-heavy netlist: `hubs` hubs, each the center of `leaves` 2-pin
/// nets, consecutive hubs joined by a 2-pin net. Heavy-edge matching pairs
/// each hub with one neighbor and strands the remaining leaves, which only
/// the two-hop pass can pair (through their hub).
graph::Hypergraph star_netlist(std::size_t hubs, std::size_t leaves) {
  const std::size_t per = leaves + 1;
  std::vector<std::vector<graph::NodeId>> nets;
  for (std::size_t s = 0; s < hubs; ++s) {
    const auto hub = static_cast<graph::NodeId>(s * per);
    for (std::size_t l = 1; l <= leaves; ++l)
      nets.push_back({hub, static_cast<graph::NodeId>(hub + l)});
    if (s + 1 < hubs)
      nets.push_back({hub, static_cast<graph::NodeId>(hub + per)});
  }
  return graph::Hypergraph(hubs * per, nets);
}

TEST(Coarsen, HypergraphPairsThroughTheLaplacianMatcher) {
  // The FM baseline's netlist coarsening is match_pairs on the
  // standard-clique Laplacian over nets of at most 32 pins: a netlist with
  // larger nets checks the cap, a star-heavy one the two-hop pass.
  graph::GeneratorConfig cfg;
  cfg.num_modules = 600;
  cfg.num_nets = 660;
  cfg.net_size_tail = 0.1;
  cfg.max_net_size = 48;
  cfg.seed = 24;
  const graph::Hypergraph wide = graph::generate_netlist(cfg);
  ASSERT_GT(wide.max_net_size(), 32u);
  const graph::Hypergraph stars = star_netlist(30, 12);
  model::ModelBuildOptions capped;
  capped.max_net_size = 32;

  for (const graph::Hypergraph* h : {&wide, &stars}) {
    const std::size_t n = h->num_nodes();
    std::vector<double> weight(n);
    for (std::size_t v = 0; v < n; ++v)
      weight[v] = 1.0 + static_cast<double>(v % 3);
    std::vector<std::uint32_t> coarse_of;
    std::vector<double> coarse_weight;
    const graph::Hypergraph coarse =
        coarsen_hypergraph(*h, weight, &coarse_of, &coarse_weight);

    const PairMatching expected = match_pairs(
        model::build_clique_laplacian(*h, model::NetModel::kStandard, capped));
    EXPECT_EQ(coarse_of, expected.cluster_of);
    ASSERT_EQ(coarse.num_nodes(), expected.num_clusters);
    ASSERT_LT(coarse.num_nodes(), n);
    ASSERT_EQ(coarse_weight.size(), coarse.num_nodes());

    // Clusters of one or two; coarse weights are the members' sums (small
    // integers, so the sums are exact).
    std::vector<std::size_t> cluster_size(coarse.num_nodes(), 0);
    std::vector<double> member_weight(coarse.num_nodes(), 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_LT(coarse_of[v], coarse.num_nodes());
      ++cluster_size[coarse_of[v]];
      member_weight[coarse_of[v]] += weight[v];
    }
    for (std::size_t c = 0; c < coarse.num_nodes(); ++c) {
      EXPECT_GE(cluster_size[c], 1u);
      EXPECT_LE(cluster_size[c], 2u);
    }
    EXPECT_EQ(coarse_weight, member_weight);
  }

  // The cap is live: pairing on every net gives another matching here.
  std::vector<std::uint32_t> coarse_of;
  std::vector<double> coarse_weight;
  coarsen_hypergraph(wide, std::vector<double>(wide.num_nodes(), 1.0),
                     &coarse_of, &coarse_weight);
  EXPECT_NE(coarse_of, match_pairs(model::build_clique_laplacian(
                                       wide, model::NetModel::kStandard))
                           .cluster_of);

  // The two-hop pass fired on the stars: some pair shares no net.
  coarsen_hypergraph(stars, std::vector<double>(stars.num_nodes(), 1.0),
                     &coarse_of, &coarse_weight);
  std::vector<std::vector<graph::NodeId>> members(coarse_weight.size());
  for (graph::NodeId v = 0; v < stars.num_nodes(); ++v)
    members[coarse_of[v]].push_back(v);
  const SymCsrMatrix star_lap =
      model::build_clique_laplacian(stars, model::NetModel::kStandard);
  std::size_t two_hop_pairs = 0;
  for (const std::vector<graph::NodeId>& m : members) {
    if (m.size() != 2) continue;
    bool adjacent = false;
    for (std::size_t k = star_lap.row_begin(m[0]); k < star_lap.row_end(m[0]);
         ++k)
      adjacent = adjacent || star_lap.col_index(k) == m[1];
    if (!adjacent) ++two_hop_pairs;
  }
  EXPECT_GT(two_hop_pairs, 0u);
}

TEST(Multilevel, RitzResidualsCertifiedAtEveryLevel) {
  const SymCsrMatrix q = netlist_laplacian(1200, 1234);
  MultilevelStats stats;
  const linalg::LanczosResult r = multilevel_solve_smallest(
      q, 10, 0x3E10ULL, ParallelConfig{}, nullptr, &stats);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.num_converged, 10u);
  ASSERT_GE(stats.levels, 1u);
  // One refinement record per prolongation target, finest included.
  ASSERT_EQ(stats.per_level.size(), stats.levels);
  EXPECT_GT(stats.coarsening_ratio, 1.0);
  for (const LevelStats& ls : stats.per_level)
    EXPECT_LE(ls.relative_residual, kRefineTolerance)
        << "level n=" << ls.n;
  EXPECT_EQ(stats.per_level.back().n, q.size());  // finest last
  // Ritz values ascend and start at the trivial eigenvalue.
  EXPECT_NEAR(r.values[0], 0.0, 1e-7);
  for (std::size_t j = 1; j < r.values.size(); ++j)
    EXPECT_GE(r.values[j], r.values[j - 1]);
  // The cost counters accumulate across every level.
  EXPECT_GT(r.flops, 0u);
  EXPECT_GT(r.matrix_bytes_moved, 0u);
  EXPECT_GT(r.iterations, 0u);
}

TEST(Multilevel, MatchesDenseEigenvalues) {
  const SymCsrMatrix q = netlist_laplacian(600, 1234);
  const linalg::LanczosResult r =
      multilevel_solve_smallest(q, 6, 0x3E10ULL, ParallelConfig{});
  ASSERT_TRUE(r.converged);
  const linalg::EigenDecomposition exact =
      linalg::solve_symmetric_eigen_smallest(q.to_dense(), 6);
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-6) << "pair " << j;
  // Unit, pairwise-orthogonal Ritz vectors.
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a; b < 6; ++b) {
      const double d = linalg::dot(r.vectors.col(a), r.vectors.col(b));
      EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-8) << a << "," << b;
    }
}

TEST(Multilevel, DegenerateNetlistsWithPathologicalNets) {
  // A 600-vertex chain netlist salted with a 0-pin net, 1-pin nets and
  // nets with duplicate pins. The clique-model path must absorb all of
  // them, and the V-cycle result must satisfy its own acceptance bound
  // when it claims convergence.
  std::vector<std::vector<graph::NodeId>> nets;
  for (graph::NodeId v = 0; v + 1 < 600; ++v)
    nets.push_back({v, static_cast<graph::NodeId>(v + 1)});
  for (graph::NodeId v = 0; v + 37 < 600; v += 37)
    nets.push_back({v, static_cast<graph::NodeId>(v + 19),
                    static_cast<graph::NodeId>(v + 37)});
  nets.push_back({});                  // 0-pin net
  nets.push_back({5});                 // 1-pin net
  nets.push_back({7, 7, 8});           // duplicate pins
  nets.push_back({3, 3, 3});           // all pins identical
  const graph::Hypergraph h(600, std::move(nets));
  const SymCsrMatrix q =
      model::build_clique_laplacian(h, model::NetModel::kStandard);

  MultilevelStats stats;
  const linalg::LanczosResult r = multilevel_solve_smallest(
      q, 4, 0x3E10ULL, ParallelConfig{}, nullptr, &stats);
  ASSERT_EQ(r.values.size(), 4u);
  EXPECT_NEAR(r.values[0], 0.0, 1e-6);
  const double accept = kRefineTolerance * q.gershgorin_upper();
  for (std::size_t j = 0; j < r.num_converged; ++j) {
    const Vec v = r.vectors.col(j);
    Vec qv = q.matvec(v);
    linalg::axpy(-r.values[j], v, qv);
    EXPECT_LE(linalg::norm(qv), accept * (1.0 + 1e-12)) << "pair " << j;
  }

  // The product contract on the same input: the embedding layer always
  // delivers a converged basis — directly, or through the flat fallback.
  spectral::EmbeddingOptions eopts;
  eopts.count = 4;
  eopts.solver.strategy = linalg::SolverStrategy::kMultilevel;
  eopts.solver.dense_threshold = 0;  // force the iterative path
  const spectral::EigenBasis basis = spectral::compute_eigenbasis(q, eopts);
  EXPECT_TRUE(basis.converged);
  EXPECT_EQ(basis.dimension(), 4u);
}

TEST(Multilevel, CutQualityWithinFivePercentOfFlat) {
  const graph::Hypergraph h = bench_netlist(800, 1234);
  core::MeloOptions flat;
  flat.num_eigenvectors = 10;
  core::MeloOptions multi = flat;
  multi.solver.strategy = core::SolverStrategy::kMultilevel;

  const core::MeloBipartitionResult a = core::melo_bipartition(h, flat);
  const core::MeloBipartitionResult b = core::melo_bipartition(h, multi);
  ASSERT_TRUE(a.eigen_converged);
  ASSERT_TRUE(b.eigen_converged);
  EXPECT_GT(a.cut, 0.0);
  EXPECT_LE(b.cut, 1.05 * a.cut)
      << "multilevel cut " << b.cut << " vs flat " << a.cut;
}

TEST(Multilevel, EmbeddingFallsBackToFlatOnUnmetTolerance) {
  // A V-cycle that reports non-convergence (forced through the fault
  // point) must make the embedding layer run the flat chain and still
  // deliver a converged basis, recording the fallback.
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const SymCsrMatrix q = netlist_laplacian(600, 1234);
  spectral::EmbeddingOptions eopts;
  eopts.count = 6;
  eopts.solver.strategy = linalg::SolverStrategy::kMultilevel;
  fault::arm("multilevel.force_nonconverge", 1);
  Diagnostics diag;
  const spectral::EigenBasis basis =
      spectral::compute_eigenbasis(q, eopts, &diag);
  EXPECT_EQ(fault::triggered("multilevel.force_nonconverge"), 1u);
  EXPECT_TRUE(basis.converged);
  EXPECT_GE(diag.stage_fallbacks("eigensolve"), 1u);
  bool saw_fallback = false;
  for (const DiagnosticEvent& e : diag.events())
    if (e.is_fallback && e.message.find("multilevel") != std::string::npos)
      saw_fallback = true;
  EXPECT_TRUE(saw_fallback);
}

TEST(Multilevel, EmbeddingRecordsHierarchyAndPhaseCounters) {
  // A multilevel solve publishes its hierarchy shape and the time of each
  // V-cycle phase as eigensolve.multilevel_* diagnostics counters.
  const SymCsrMatrix q = netlist_laplacian(600, 1234);
  spectral::EmbeddingOptions eopts;
  eopts.count = 6;
  eopts.solver.strategy = linalg::SolverStrategy::kMultilevel;
  Diagnostics diag;
  const spectral::EigenBasis basis =
      spectral::compute_eigenbasis(q, eopts, &diag);
  EXPECT_TRUE(basis.converged);
  for (const char* name :
       {"multilevel_levels", "multilevel_coarsest_n",
        "multilevel_refine_sweeps", "multilevel_coarsen_us",
        "multilevel_coarse_solve_us", "multilevel_refine_us"}) {
    bool present = false;
    for (const StageCounter& c : diag.counters())
      if (c.stage == "eigensolve" && c.name == name) present = true;
    EXPECT_TRUE(present) << name;
  }
  EXPECT_GE(diag.counter("eigensolve", "multilevel_levels"), 1u);
  EXPECT_GT(diag.counter("eigensolve", "multilevel_coarsest_n"), 0u);
}

TEST(Multilevel, BitIdenticalAcrossThreadCounts) {
  // Matching is serial, the coarse assembly honors the CSR stable-merge
  // contract, and every refinement kernel uses the fixed-block
  // deterministic primitives — so 1 thread, 2 threads and the auto lane
  // (8 threads in the test_multilevel_mt ctest run) must agree bitwise.
  const SymCsrMatrix q = netlist_laplacian(1000, 1234);
  const auto solve = [&](const ParallelConfig& par) {
    return multilevel_solve_smallest(q, 8, 0x3E10ULL, par);
  };
  const linalg::LanczosResult one = solve(ParallelConfig::with_threads(1));
  const linalg::LanczosResult two = solve(ParallelConfig::with_threads(2));
  const linalg::LanczosResult autod =
      solve(ParallelConfig::with_threads(0));  // $SPECPART_THREADS
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

// Reference: the strided column kernels, CGS2 and Rayleigh-Ritz rotation
// the V-cycle ran before its panel kernels moved to contiguous rows and
// columns. The replacements must match them bit for bit.
double reference_col_dot(const Panel& p, std::size_t ca, const Panel& q,
                         std::size_t cb, const ParallelConfig& par) {
  const std::size_t pw = p.cols(), qw = q.cols();
  const double* pd = p.data();
  const double* qd = q.data();
  return parallel_reduce<double>(
      par, 0, p.rows(), 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t r = lo; r < hi; ++r)
          s += pd[r * pw + ca] * qd[r * qw + cb];
        return s;
      },
      [](double acc, double s) { return acc + s; });
}

void reference_col_axpy(double alpha, const Panel& p, std::size_t ca,
                        Panel& q, std::size_t cb, const ParallelConfig& par) {
  const std::size_t pw = p.cols(), qw = q.cols();
  const double* pd = p.data();
  double* qd = q.data();
  parallel_for(par, 0, p.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r)
      qd[r * qw + cb] += alpha * pd[r * pw + ca];
  });
}

void reference_col_scale(Panel& p, std::size_t c, double alpha,
                         const ParallelConfig& par) {
  const std::size_t pw = p.cols();
  double* pd = p.data();
  parallel_for(par, 0, p.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) pd[r * pw + c] *= alpha;
  });
}

std::size_t reference_qr_cgs2(Panel& x, double breakdown_tol,
                              const ParallelConfig& par, Rng& rng,
                              std::uint64_t& flops) {
  const std::size_t n = x.rows(), width = x.cols();
  std::size_t restarts = 0;
  for (std::size_t k = 0; k < width; ++k) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      for (int sweep = 0; sweep < 2; ++sweep)
        for (std::size_t j = 0; j < k; ++j) {
          const double c = reference_col_dot(x, j, x, k, par);
          if (c != 0.0) reference_col_axpy(-c, x, j, x, k, par);
        }
      flops += 8ull * n * k;
      const double nrm = std::sqrt(reference_col_dot(x, k, x, k, par));
      if (nrm > breakdown_tol) {
        reference_col_scale(x, k, 1.0 / nrm, par);
        break;
      }
      if (attempt == 1) {
        reference_col_scale(x, k, 0.0, par);
        break;
      }
      for (std::size_t r = 0; r < n; ++r) x.at(r, k) = rng.next_normal();
      ++restarts;
    }
  }
  return restarts;
}

void reference_rotate(const Panel& a, const DenseMatrix& u, Panel& out,
                      const ParallelConfig& par) {
  const std::size_t k = a.cols(), k2 = u.cols();
  parallel_for(par, 0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const double* ar = a.row(r);
      double* orow = out.row(r);
      for (std::size_t c = 0; c < k2; ++c) {
        double s = 0.0;
        for (std::size_t j = 0; j < k; ++j) s += ar[j] * u.at(j, c);
        orow[c] = s;
      }
    }
  });
}

bool same_bits(const Panel& a, const Panel& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

Panel random_panel(std::size_t n, std::size_t w, std::uint64_t seed) {
  Rng rng(seed);
  Panel p(n, w);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < w; ++c) p.at(r, c) = rng.next_normal();
  return p;
}

/// Runs panel_qr_cgs2 and the reference on copies of `x` with the same Rng
/// seed; expects identical bits, restart counts, flop charges and draws.
void expect_cgs2_matches_reference(const Panel& x, const ParallelConfig& par,
                                   const std::string& what) {
  Panel got = x, want = x;
  Rng rng_got(99), rng_want(99);
  std::uint64_t flops_got = 0, flops_want = 0;
  const std::size_t restarts_got =
      linalg::panel_qr_cgs2(got, 1e-13, par, rng_got, flops_got);
  const std::size_t restarts_want =
      reference_qr_cgs2(want, 1e-13, par, rng_want, flops_want);
  EXPECT_TRUE(same_bits(got, want)) << what;
  EXPECT_EQ(restarts_got, restarts_want) << what;
  EXPECT_EQ(flops_got, flops_want) << what;
  EXPECT_EQ(rng_got.next_u64(), rng_want.next_u64()) << what;
}

TEST(PanelOps, Cgs2AndRotateMatchStridedReferenceBitForBit) {
  // n = 1 leaves every column after the first dead (restart, then zero);
  // n = 3000 spans several 1024-row reduction blocks.
  for (const std::size_t n : {1, 700, 3000})
    for (std::size_t w = 1; w <= 33; ++w) {
      const Panel x = random_panel(n, w, 31 * n + w);
      Rng urng(7 * n + w);
      DenseMatrix u(w, w + 3);
      for (std::size_t i = 0; i < u.rows(); ++i)
        for (std::size_t j = 0; j < u.cols(); ++j) u.at(i, j) = urng.next_normal();
      for (const std::size_t threads : {1, 2, 8}) {
        const ParallelConfig par = ParallelConfig::with_threads(threads);
        const std::string what = "n=" + std::to_string(n) +
                                 " w=" + std::to_string(w) +
                                 " threads=" + std::to_string(threads);
        expect_cgs2_matches_reference(x, par, what);
        Panel got(n, u.cols()), want(n, u.cols());
        linalg::panel_rotate(x, u, got, par);
        reference_rotate(x, u, want, par);
        EXPECT_TRUE(same_bits(got, want)) << what;
      }
    }
}

TEST(PanelOps, Cgs2RestartPathMatchesReferenceBitForBit) {
  // A duplicated column dies under orthogonalization and a zero column is
  // dead on arrival: both take the refill path, drawing from the Rng in
  // the same order on both sides.
  for (const std::size_t n : {5, 700, 3000}) {
    Panel x = random_panel(n, 6, 500 + n);
    for (std::size_t r = 0; r < n; ++r) {
      x.at(r, 2) = x.at(r, 0);
      x.at(r, 4) = 0.0;
    }
    for (const std::size_t threads : {1, 2, 8}) {
      const ParallelConfig par = ParallelConfig::with_threads(threads);
      Panel probe = x;
      Rng rng(99);
      std::uint64_t flops = 0;
      EXPECT_GE(linalg::panel_qr_cgs2(probe, 1e-13, par, rng, flops), 2u);
      expect_cgs2_matches_reference(
          x, par, "n=" + std::to_string(n) + " threads=" +
                      std::to_string(threads));
    }
  }
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

void expect_same_solve(const linalg::LanczosResult& got,
                       const linalg::LanczosResult& want,
                       const std::string& what) {
  EXPECT_TRUE(same_bits(got.values, want.values)) << what;
  EXPECT_TRUE(same_bits(got.vectors, want.vectors)) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.num_converged, want.num_converged) << what;
  EXPECT_EQ(got.flops, want.flops) << what;
}

/// {fn() on the clone the host dispatches to, fn() on the baseline clone}.
template <class Fn>
auto on_both_clones(Fn&& fn) {
  auto dispatched = fn();
  const simd::ScopedBaseline baseline;
  return std::pair{std::move(dispatched), fn()};
}

TEST(KernelIsa, Avx2CloneMatchesBaselineBitForBit) {
  // CI runners have AVX2, so this is the only test that runs the baseline
  // clone there. Inputs: the Cache.ColdBasisGoldenDigests netlists
  // (tests/test_service.cpp; n=700 coarsens once, n=2000 three times) at
  // an 18- and a 32-wide panel, flat Lanczos, a dense solve and both SpMM
  // chunk widths. Serial in test_multilevel; 8 threads in
  // test_multilevel_mt, where the blocks run on pool workers.
  if (simd::active_isa() != simd::Isa::kAvx2)
    GTEST_SKIP() << "the host CPU has no AVX2, so only the baseline clone "
                    "can run here";
  {
    const simd::ScopedBaseline baseline;
    ASSERT_EQ(simd::active_isa(), simd::Isa::kBaseline);
  }
  ASSERT_EQ(simd::active_isa(), simd::Isa::kAvx2);

  const auto golden_laplacian = [](std::size_t modules) {
    graph::GeneratorConfig cfg;
    cfg.num_modules = modules;
    cfg.num_nets = modules + modules / 3;
    cfg.num_clusters = 4;
    cfg.seed = 7;
    return graph::build_laplacian(
        model::clique_expand(graph::generate_netlist(cfg),
                             model::NetModel::kPartitioningSpecific));
  };
  const SymCsrMatrix q700 = golden_laplacian(700);
  const SymCsrMatrix q2000 = golden_laplacian(2000);

  const ParallelConfig par =
      ParallelConfig::with_threads(env_threads() == 0 ? 1 : 0);
  for (const SymCsrMatrix* q : {&q700, &q2000})
    for (const std::size_t count : {9, 16}) {
      const auto [avx2, baseline] = on_both_clones([&] {
        return multilevel_solve_smallest(*q, count, 0x3E10ULL, par);
      });
      expect_same_solve(avx2, baseline,
                        "vcycle n=" + std::to_string(q->size()) +
                            " count=" + std::to_string(count));
    }

  linalg::LanczosOptions lopts;
  lopts.num_eigenpairs = 9;
  lopts.parallel = par;
  const auto [lanczos_avx2, lanczos_baseline] =
      on_both_clones([&] { return linalg::lanczos_smallest(q700, lopts); });
  expect_same_solve(lanczos_avx2, lanczos_baseline, "lanczos n=700 count=9");

  const auto [dense_avx2, dense_baseline] = on_both_clones([] {
    return linalg::solve_symmetric_eigen(
        random_laplacian(400, 1200, 0xD15EULL).to_dense());
  });
  EXPECT_TRUE(same_bits(dense_avx2.values, dense_baseline.values));
  EXPECT_TRUE(same_bits(dense_avx2.vectors, dense_baseline.vectors));

  for (const std::size_t width : {10, 16}) {
    const Panel x = random_panel(q2000.size(), width, width);
    const auto [y_avx2, y_baseline] = on_both_clones([&] {
      Panel y(x.rows(), width);
      q2000.spmm(x, y, par);
      return y;
    });
    EXPECT_TRUE(same_bits(y_avx2, y_baseline)) << "spmm width=" << width;
  }
}

}  // namespace
}  // namespace specpart::multilevel
