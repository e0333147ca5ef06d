// Property-based sweeps (TEST_P) over randomized instances: invariants that
// must hold for every seed, size, and parameter combination.
#include <gtest/gtest.h>

#include <numeric>

#include "core/drivers.h"
#include "core/reduction.h"
#include "graph/generator.h"
#include "graph/laplacian.h"
#include "model/clique_models.h"
#include "part/fm.h"
#include "part/multilevel.h"
#include "part/objectives.h"
#include "part/ordering.h"
#include "spectral/dprp.h"
#include "spectral/embedding.h"
#include "spectral/rsb.h"
#include "util/rng.h"

namespace specpart {
namespace {

graph::Hypergraph instance(std::size_t n, std::uint64_t seed) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = n + n / 4;
  cfg.num_clusters = 3 + seed % 4;
  cfg.subclusters_per_cluster = 2;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, CutIdentitiesAcrossRepresentations) {
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(120, seed);
  Rng rng(seed * 3 + 1);
  std::vector<std::uint32_t> a(h.num_nodes());
  for (auto& c : a) c = static_cast<std::uint32_t>(rng.next_below(3));
  const part::Partition p(a, 3);

  // Sum of hypergraph cluster degrees >= 2x cut (every cut net touches at
  // least 2 clusters) and <= 3x cut (at most 3 clusters exist).
  const double cut = part::cut_nets(h, p);
  const auto deg = part::cluster_degrees(h, p);
  const double total_deg = deg[0] + deg[1] + deg[2];
  EXPECT_GE(total_deg, 2.0 * cut - 1e-9);
  EXPECT_LE(total_deg, 3.0 * cut + 1e-9);

  // Graph f = trace identity: f computed from cluster degrees equals 2*cut.
  const graph::Graph g =
      model::clique_expand(h, model::NetModel::kPartitioningSpecific);
  const auto gdeg = part::cluster_degrees(g, p);
  EXPECT_NEAR(gdeg[0] + gdeg[1] + gdeg[2], part::paper_f(g, p), 1e-9);
}

TEST_P(SeedSweep, PaperFEqualsTraceForm) {
  // f(P_k) = trace(X^T Q X) — computed explicitly via the Laplacian.
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(40, seed);
  const graph::Graph g =
      model::clique_expand(h, model::NetModel::kStandard);
  const auto q = graph::build_laplacian(g);
  Rng rng(seed + 5);
  std::vector<std::uint32_t> a(g.num_nodes());
  for (auto& c : a) c = static_cast<std::uint32_t>(rng.next_below(4));
  const part::Partition p(a, 4);

  double trace_form = 0.0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    linalg::Vec x(g.num_nodes(), 0.0);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
      if (p.cluster_of(v) == c) x[v] = 1.0;
    trace_form += linalg::dot(x, q.matvec(x));
  }
  EXPECT_NEAR(trace_form, part::paper_f(g, p), 1e-9);
}

TEST_P(SeedSweep, MeloOrderingAlwaysPermutation) {
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(90, seed);
  for (core::CoordScaling sc :
       {core::CoordScaling::kSqrtGap, core::CoordScaling::kInvSqrtLambda}) {
    core::MeloOptions m;
    m.scaling = sc;
    m.num_eigenvectors = 6;
    m.seed = seed;
    const auto runs = core::melo_orderings(h, m);
    EXPECT_TRUE(part::is_permutation(runs[0].ordering, h.num_nodes()));
  }
}

TEST_P(SeedSweep, DprpNeverWorseThanUniformSplit) {
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(80, seed);
  part::Ordering o(h.num_nodes());
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(seed + 11);
  rng.shuffle(o);
  const std::uint32_t k = 4;
  spectral::DprpOptions opts;
  opts.k = k;
  const auto dp = spectral::dprp_split(h, o, opts);

  // Uniform contiguous split of the same ordering is a feasible solution.
  std::vector<std::uint32_t> a(h.num_nodes());
  for (std::size_t pos = 0; pos < o.size(); ++pos)
    a[o[pos]] = static_cast<std::uint32_t>(
        std::min<std::size_t>(k - 1, pos * k / o.size()));
  const double uniform = part::scaled_cost(h, part::Partition(a, k));
  EXPECT_LE(dp.scaled_cost, uniform + 1e-9);
}

TEST_P(SeedSweep, FmNeverWorsensAndKeepsBalance) {
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(100, seed);
  Rng rng(seed + 17);
  std::vector<std::uint32_t> a(h.num_nodes());
  // Balanced random start.
  std::vector<graph::NodeId> ids(h.num_nodes());
  std::iota(ids.begin(), ids.end(), 0u);
  rng.shuffle(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) a[ids[i]] = i % 2;
  const part::Partition init(a, 2);
  const double before = part::cut_nets(h, init);

  part::FmOptions opts;
  opts.seed = seed;
  const auto r = part::fm_refine(h, init, opts);
  EXPECT_LE(r.cut, before + 1e-9);
  EXPECT_TRUE(opts.balance.satisfied(r.partition));
}

TEST_P(SeedSweep, RsbClusterSizesSumToN) {
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(70, seed);
  spectral::RsbOptions opts;
  opts.seed = seed;
  const part::Partition p = spectral::rsb_partition(h, 5, opts);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < 5; ++c) total += p.cluster_size(c);
  EXPECT_EQ(total, h.num_nodes());
}

TEST_P(SeedSweep, EigenbasisOrthonormalAndOrdered) {
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(60, seed);
  const graph::Graph g =
      model::clique_expand(h, model::NetModel::kPartitioningSpecific);
  spectral::EmbeddingOptions opts;
  opts.count = 5;
  opts.seed = seed;
  const auto basis = spectral::compute_eigenbasis(g, opts);
  for (std::size_t i = 0; i < basis.dimension(); ++i) {
    if (i > 0) {
      EXPECT_LE(basis.values[i - 1], basis.values[i] + 1e-9);
    }
    for (std::size_t j = i; j < basis.dimension(); ++j) {
      const double dot_ij =
          linalg::dot(basis.vectors.col(i), basis.vectors.col(j));
      EXPECT_NEAR(dot_ij, i == j ? 1.0 : 0.0, 1e-6);
    }
  }
}

TEST_P(SeedSweep, PrefixCutsEndpointsZero) {
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(50, seed);
  part::Ordering o(h.num_nodes());
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(seed + 23);
  rng.shuffle(o);
  const auto cuts = part::prefix_cuts(h, o);
  EXPECT_DOUBLE_EQ(cuts.front(), 0.0);
  EXPECT_DOUBLE_EQ(cuts.back(), 0.0);
  for (double c : cuts) EXPECT_GE(c, 0.0);
}

TEST_P(SeedSweep, MultilevelCompetitiveWithFlatFm) {
  const std::uint64_t seed = GetParam();
  const graph::Hypergraph h = instance(220, seed);
  part::FmOptions fm;
  fm.seed = seed;
  const double flat = part::fm_bipartition(h, fm).cut;
  part::MultilevelOptions ml;
  ml.seed = seed;
  const double multi = part::multilevel_bipartition(h, ml).cut;
  // Multilevel must be in the same league as flat FM (usually better on
  // larger instances; never catastrophically worse).
  EXPECT_LE(multi, 1.5 * flat + 5.0) << "flat=" << flat;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace specpart
