// Tests for the parallel compute-kernel layer (util/parallel.h):
// determinism of the fixed-block reductions across thread counts, and
// equivalence of every parallelized hot path (MELO ordering, Lanczos, SpMV,
// k-means assignment, DP-RP table fill) with the serial reference.
//
// Thread counts are oversubscribed on small machines on purpose — the
// pool spawns the requested workers regardless of core count, so the
// determinism contract is exercised under real interleaving everywhere.
// `SPECPART_THREADS` (set by the CI's pinned ctest invocation) is added to
// the tested counts when present.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/drivers.h"
#include "core/melo.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/laplacian.h"
#include "linalg/lanczos.h"
#include "model/clique_models.h"
#include "spectral/dprp.h"
#include "spectral/kmeans.h"
#include "util/rng.h"

namespace specpart {
namespace {

std::vector<std::size_t> tested_thread_counts() {
  std::vector<std::size_t> counts = {1, 2, 8};
  const std::size_t env = env_threads();
  if (env > 1 && env != 2 && env != 8) counts.push_back(env);
  return counts;
}

ParallelConfig cfg(std::size_t threads, std::size_t grain = 128) {
  ParallelConfig c;
  c.num_threads = threads;
  c.grain = grain;
  return c;
}

TEST(Parallel, ConfigResolvesThreads) {
  EXPECT_EQ(ParallelConfig{}.threads(), 1u);
  EXPECT_TRUE(ParallelConfig{}.serial());
  EXPECT_EQ(ParallelConfig::with_threads(8).threads(), 8u);
  EXPECT_FALSE(ParallelConfig::with_threads(8).serial());
  // 0 = auto resolves to something >= 1 (env or hardware).
  EXPECT_GE(ParallelConfig::with_threads(0).threads(), 1u);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  const std::size_t n = 10007;  // not a multiple of the grain
  for (const std::size_t t : tested_thread_counts()) {
    std::vector<int> hits(n, 0);
    parallel_for(cfg(t), 3, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i], 0) << i;
    for (std::size_t i = 3; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
  }
}

TEST(Parallel, ReduceSumBitIdenticalAcrossThreadCounts) {
  // Values of wildly different magnitude make the sum order-sensitive, so
  // bit-equality across thread counts is a real statement about the fixed
  // blocks, not an accident of benign data.
  Rng rng(42);
  const std::size_t n = 20011;
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i)
    xs[i] = rng.next_normal() * std::pow(10.0, static_cast<double>(i % 17) - 8);

  auto sum_with = [&](std::size_t threads) {
    return parallel_reduce<double>(
        cfg(threads), 0, n, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += xs[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };

  const double reference = sum_with(1);
  for (const std::size_t t : tested_thread_counts())
    EXPECT_EQ(sum_with(t), reference) << t << " threads";

  // And the reference equals an explicit fixed-block serial fold.
  double manual = 0.0;
  for (std::size_t lo = 0; lo < n; lo += 128) {
    double s = 0.0;
    for (std::size_t i = lo; i < std::min(n, lo + 128); ++i) s += xs[i];
    manual += s;
  }
  EXPECT_EQ(reference, manual);
}

TEST(Parallel, ReduceEmptyAndSingleBlock) {
  auto count = [](std::size_t lo, std::size_t hi) {
    return static_cast<double>(hi - lo);
  };
  auto add = [](double a, double b) { return a + b; };
  EXPECT_EQ(parallel_reduce<double>(cfg(8), 5, 5, 1.5, count, add), 1.5);
  EXPECT_EQ(parallel_reduce<double>(cfg(8, 1024), 0, 100, 0.0, count, add),
            100.0);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      parallel_for(cfg(4, 16), 0, 1000,
                   [&](std::size_t lo, std::size_t) {
                     if (lo >= 512) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::vector<int> hits(100, 0);
  parallel_for(cfg(4, 16), 0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, PoolReuseIsStable) {
  // Many small jobs back-to-back: exercises sleep/wake cycles of the pool.
  double expected = -1.0;
  for (int round = 0; round < 200; ++round) {
    const double s = parallel_reduce<double>(
        cfg(4, 8), 0, 1000, 0.0,
        [](std::size_t lo, std::size_t hi) {
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i)
            acc += static_cast<double>(i) * 0.5;
          return acc;
        },
        [](double a, double b) { return a + b; });
    if (expected < 0.0) expected = s;
    ASSERT_EQ(s, expected) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Equivalence of the parallelized hot paths with the serial reference.
// ---------------------------------------------------------------------------

graph::Hypergraph make_netlist(std::size_t modules, std::uint64_t seed) {
  graph::GeneratorConfig gcfg;
  gcfg.num_modules = modules;
  gcfg.num_nets = modules + modules / 10;
  gcfg.seed = seed;
  return graph::generate_netlist(gcfg);
}

core::VectorInstance random_instance(std::size_t n, std::size_t d,
                                     std::uint64_t seed) {
  core::VectorInstance inst;
  inst.vectors = linalg::DenseMatrix(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      inst.vectors.at(i, j) = rng.next_normal();
  return inst;
}

TEST(ParallelEquivalence, MeloExactOrderingBitIdentical) {
  const core::VectorInstance inst = random_instance(600, 8, 11);
  core::MeloOrderingOptions opts;
  const part::Ordering reference = core::melo_order_vectors(inst, opts);
  for (const std::size_t t : tested_thread_counts()) {
    opts.parallel = ParallelConfig::with_threads(t);
    EXPECT_EQ(core::melo_order_vectors(inst, opts), reference)
        << t << " threads";
  }
}

TEST(ParallelEquivalence, MeloDriverWithReadjustBitIdentical) {
  // n below the dense eigensolver threshold: the eigenbasis is identical
  // for every thread count, so the full driver (including the H-readjust
  // reload) must reproduce the serial orderings bit for bit.
  const graph::Hypergraph h = make_netlist(300, 5);
  core::MeloOptions opts;
  opts.num_eigenvectors = 6;
  opts.num_starts = 2;
  const auto reference = core::melo_orderings(h, opts);
  for (const std::size_t t : tested_thread_counts()) {
    opts.parallel = ParallelConfig::with_threads(t);
    const auto runs = core::melo_orderings(h, opts);
    ASSERT_EQ(runs.size(), reference.size());
    for (std::size_t r = 0; r < runs.size(); ++r)
      EXPECT_EQ(runs[r].ordering, reference[r].ordering)
          << t << " threads, start " << r;
  }
}

TEST(ParallelEquivalence, SparseMatvecBitIdentical) {
  const graph::Hypergraph h = make_netlist(800, 21);
  const linalg::SymCsrMatrix q = graph::build_laplacian(
      model::clique_expand(h, model::NetModel::kPartitioningSpecific));
  Rng rng(3);
  linalg::Vec x(q.size());
  for (double& v : x) v = rng.next_normal();
  linalg::Vec reference;
  q.matvec(x, reference);
  for (const std::size_t t : tested_thread_counts()) {
    linalg::Vec y;
    q.matvec(x, y, cfg(t, 64));
    EXPECT_EQ(y, reference) << t << " threads";
  }
}

TEST(ParallelEquivalence, LanczosMatchesSerialAndIsDeterministic) {
  // Ring + random chords: the spectrum is well separated, so the serial
  // reference converges fully (clique-expanded netlists cluster eigenvalues
  // and are exercised end-to-end by the MELO driver test instead).
  const std::size_t n = 400;
  Rng rng(33);
  std::vector<graph::Edge> edges;
  for (std::size_t i = 0; i < n; ++i)
    edges.push_back({static_cast<graph::NodeId>(i),
                     static_cast<graph::NodeId>((i + 1) % n),
                     0.5 + rng.next_double()});
  for (std::size_t e = 0; e < 2 * n; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.next_below(n));
    const auto v = static_cast<graph::NodeId>(rng.next_below(n));
    if (u != v) edges.push_back({u, v, 0.5 + rng.next_double()});
  }
  const linalg::SymCsrMatrix q =
      graph::build_laplacian(graph::Graph(n, edges));
  linalg::LanczosOptions opts;
  opts.num_eigenpairs = 6;
  const linalg::LanczosResult serial = linalg::lanczos_smallest(q, opts);
  ASSERT_TRUE(serial.converged);

  const double scale = q.gershgorin_upper();
  std::vector<linalg::LanczosResult> parallel_results;
  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    opts.parallel = ParallelConfig::with_threads(t);
    parallel_results.push_back(linalg::lanczos_smallest(q, opts));
    const linalg::LanczosResult& r = parallel_results.back();
    ASSERT_TRUE(r.converged) << t << " threads";
    ASSERT_EQ(r.values.size(), serial.values.size());
    // Parallel reorthogonalization is CGS2 (vs serial MGS2): eigenvalues
    // agree to solver tolerance, not bitwise.
    for (std::size_t i = 0; i < serial.values.size(); ++i)
      EXPECT_NEAR(r.values[i], serial.values[i], 1e-6 * scale)
          << t << " threads, pair " << i;
  }
  // Determinism among parallel runs: 2 and 8 threads are bit-identical.
  EXPECT_EQ(parallel_results[0].values, parallel_results[1].values);
  EXPECT_EQ(parallel_results[0].iterations, parallel_results[1].iterations);
  EXPECT_EQ(parallel_results[0].vectors.max_abs_diff(
                parallel_results[1].vectors),
            0.0);
}

TEST(ParallelEquivalence, KmeansAssignmentsBitIdentical) {
  // n below the dense threshold keeps the embedding identical across
  // thread counts; the Lloyd iterations themselves are exact under
  // point-blocking, so assignments must match bit for bit.
  const graph::Hypergraph h = make_netlist(300, 55);
  spectral::KmeansOptions opts;
  opts.num_starts = 2;
  const part::Partition reference = spectral::kmeans_partition(h, 4, opts);
  for (const std::size_t t : tested_thread_counts()) {
    opts.parallel = ParallelConfig::with_threads(t);
    const part::Partition p = spectral::kmeans_partition(h, 4, opts);
    EXPECT_EQ(p.assignment(), reference.assignment()) << t << " threads";
  }
}

TEST(ParallelEquivalence, DprpSplitBitIdentical) {
  const graph::Hypergraph h = make_netlist(500, 77);
  core::MeloOptions mopts;
  mopts.num_eigenvectors = 6;
  const auto runs = core::melo_orderings(h, mopts);
  spectral::DprpOptions opts;
  opts.k = 6;
  const spectral::DprpResult reference =
      spectral::dprp_split(h, runs[0].ordering, opts);
  for (const std::size_t t : tested_thread_counts()) {
    opts.parallel = ParallelConfig::with_threads(t);
    const spectral::DprpResult r =
        spectral::dprp_split(h, runs[0].ordering, opts);
    EXPECT_EQ(r.boundaries, reference.boundaries) << t << " threads";
    EXPECT_EQ(r.scaled_cost, reference.scaled_cost) << t << " threads";
    EXPECT_EQ(r.partition.assignment(), reference.partition.assignment())
        << t << " threads";
  }
}

}  // namespace
}  // namespace specpart
