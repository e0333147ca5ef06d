// Tests for the extended algorithm set: Barnes' transportation method,
// Frankle-Karp probes, multilevel partitioning, k-way FM and spectral
// k-means.
#include <gtest/gtest.h>

#include "graph/generator.h"
#include "part/kwayfm.h"
#include "part/multilevel.h"
#include "part/objectives.h"
#include "multilevel/coarsen.h"
#include "spectral/barnes.h"
#include "spectral/fkprobe.h"
#include "spectral/kmeans.h"
#include "util/error.h"
#include "util/rng.h"

namespace specpart {
namespace {

graph::Hypergraph planted(std::size_t n, std::size_t clusters,
                          std::uint64_t seed, double p_local = 0.9) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = n * 2;
  cfg.num_clusters = clusters;
  cfg.subclusters_per_cluster = 1;
  cfg.p_subcluster = p_local;
  cfg.p_cluster = 0.0;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

// --- Barnes ------------------------------------------------------------

TEST(Barnes, ProducesPrescribedSizes) {
  const graph::Hypergraph h = planted(90, 3, 1);
  spectral::BarnesOptions opts;
  const part::Partition p = spectral::barnes_partition(h, 3, opts);
  EXPECT_EQ(p.cluster_size(0), 30u);
  EXPECT_EQ(p.cluster_size(1), 30u);
  EXPECT_EQ(p.cluster_size(2), 30u);
}

TEST(Barnes, CustomSizesRespected) {
  const graph::Hypergraph h = planted(60, 2, 2);
  spectral::BarnesOptions opts;
  opts.cluster_sizes = {20, 40};
  const part::Partition p = spectral::barnes_partition(h, 2, opts);
  EXPECT_EQ(p.cluster_size(0), 20u);
  EXPECT_EQ(p.cluster_size(1), 40u);
}

TEST(Barnes, BeatsRoundRobinOnPlanted) {
  const graph::Hypergraph h = planted(120, 4, 3);
  const part::Partition p =
      spectral::barnes_partition(h, 4, spectral::BarnesOptions{});
  std::vector<std::uint32_t> rr(h.num_nodes());
  for (std::size_t i = 0; i < rr.size(); ++i) rr[i] = i % 4;
  EXPECT_LT(part::cut_nets(h, p),
            part::cut_nets(h, part::Partition(rr, 4)));
}

TEST(Barnes, RejectsBadSizes) {
  const graph::Hypergraph h = planted(20, 2, 4);
  spectral::BarnesOptions opts;
  opts.cluster_sizes = {5, 5};  // does not sum to 20
  EXPECT_THROW(spectral::barnes_partition(h, 2, opts), Error);
}

// --- Frankle-Karp probes ------------------------------------------------

TEST(FkProbe, BalancedAndReasonable) {
  const graph::Hypergraph h = planted(100, 2, 5);
  spectral::FkProbeOptions opts;
  const spectral::FkProbeResult r = spectral::fk_probe_bipartition(h, opts);
  const std::size_t n = h.num_nodes();
  EXPECT_GE(r.partition.cluster_size(0), static_cast<std::size_t>(0.45 * n));
  EXPECT_GE(r.partition.cluster_size(1), static_cast<std::size_t>(0.45 * n));
  EXPECT_DOUBLE_EQ(r.cut, part::cut_nets(h, r.partition));
  // Two planted blocks: the probe family contains the Fiedler direction,
  // so the cut must be far below half the nets.
  EXPECT_LT(r.cut, 0.3 * static_cast<double>(h.num_nets()));
}

TEST(FkProbe, DeterministicForFixedSeed) {
  const graph::Hypergraph h = planted(60, 2, 6);
  const auto a = spectral::fk_probe_bipartition(h, spectral::FkProbeOptions{});
  const auto b = spectral::fk_probe_bipartition(h, spectral::FkProbeOptions{});
  EXPECT_EQ(a.partition.assignment(), b.partition.assignment());
}

TEST(FkProbe, MoreProbesNeverWorse) {
  const graph::Hypergraph h = planted(80, 3, 7, 0.7);
  spectral::FkProbeOptions few;
  few.num_probes = 4;
  spectral::FkProbeOptions many = few;
  many.num_probes = 32;
  // Probe sequences are prefixes of the same stream, so more probes can
  // only improve the best.
  EXPECT_LE(spectral::fk_probe_bipartition(h, many).cut,
            spectral::fk_probe_bipartition(h, few).cut + 1e-9);
}

// --- Multilevel ----------------------------------------------------------

TEST(Multilevel, CoarsenOnceShrinksAndPreservesWeight) {
  const graph::Hypergraph h = planted(200, 4, 9);
  std::vector<double> weight(h.num_nodes(), 1.0);
  std::vector<std::uint32_t> coarse_of;
  std::vector<double> coarse_weight;
  const graph::Hypergraph coarse =
      multilevel::coarsen_hypergraph(h, weight, &coarse_of, &coarse_weight);
  EXPECT_LT(coarse.num_nodes(), h.num_nodes());
  EXPECT_GE(coarse.num_nodes(), h.num_nodes() / 2);  // pairs at most
  double total = 0.0;
  for (double w : coarse_weight) total += w;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(h.num_nodes()));
  for (graph::NodeId v = 0; v < h.num_nodes(); ++v)
    EXPECT_LT(coarse_of[v], coarse.num_nodes());
}

TEST(Multilevel, CutConsistentAcrossProjection) {
  // The cut of a coarse partition equals the cut of its fine projection.
  const graph::Hypergraph h = planted(150, 3, 10);
  std::vector<double> weight(h.num_nodes(), 1.0);
  std::vector<std::uint32_t> coarse_of;
  std::vector<double> coarse_weight;
  const graph::Hypergraph coarse =
      multilevel::coarsen_hypergraph(h, weight, &coarse_of, &coarse_weight);
  Rng rng(3);
  std::vector<std::uint32_t> ca(coarse.num_nodes());
  for (auto& c : ca) c = rng.next_bool() ? 1 : 0;
  const part::Partition cp(ca, 2);
  std::vector<std::uint32_t> fa(h.num_nodes());
  for (graph::NodeId v = 0; v < h.num_nodes(); ++v)
    fa[v] = cp.cluster_of(coarse_of[v]);
  // Coarse nets merged duplicates by weight, so weighted cuts must agree.
  EXPECT_NEAR(part::cut_nets(coarse, cp),
              part::cut_nets(h, part::Partition(fa, 2)), 1e-9);
}

TEST(Multilevel, BipartitionQualityAndBalance) {
  const graph::Hypergraph h = planted(400, 2, 11, 0.85);
  part::MultilevelOptions opts;
  const part::MultilevelResult r = part::multilevel_bipartition(h, opts);
  EXPECT_GT(r.levels, 0u);
  EXPECT_TRUE(opts.balance.satisfied(r.partition));
  // Two planted blocks: cut should be small relative to net count.
  EXPECT_LT(r.cut, 0.25 * static_cast<double>(h.num_nets()));
}

TEST(Multilevel, SpectralInitialAlsoWorks) {
  const graph::Hypergraph h = planted(300, 2, 13, 0.85);
  part::MultilevelOptions opts;
  opts.spectral_initial = true;
  const part::MultilevelResult r = part::multilevel_bipartition(h, opts);
  EXPECT_TRUE(opts.balance.satisfied(r.partition));
  EXPECT_DOUBLE_EQ(r.cut, part::cut_nets(h, r.partition));
}

TEST(Multilevel, MatchesFlatFmOnSmallInstance) {
  // Small instances skip coarsening entirely and reduce to FM.
  const graph::Hypergraph h = planted(40, 2, 14);
  part::MultilevelOptions opts;
  const part::MultilevelResult r = part::multilevel_bipartition(h, opts);
  EXPECT_EQ(r.levels, 0u);
  EXPECT_TRUE(opts.balance.satisfied(r.partition));
}

// --- K-way FM refinement ---------------------------------------------------

TEST(KWayFm, NeverIncreasesCut) {
  const graph::Hypergraph h = planted(160, 4, 27, 0.8);
  Rng rng(28);
  std::vector<std::uint32_t> a(h.num_nodes());
  for (auto& c : a) c = static_cast<std::uint32_t>(rng.next_below(4));
  const part::Partition init(a, 4);
  const double before = part::cut_nets(h, init);
  const part::KWayFmResult r = part::kway_fm_refine(h, init, part::KWayFmOptions{});
  EXPECT_LE(r.cut, before + 1e-9);
  EXPECT_NEAR(r.improvement, before - r.cut, 1e-9);
}

TEST(KWayFm, ImprovesRandomStartSubstantially) {
  const graph::Hypergraph h = planted(200, 4, 29, 0.9);
  Rng rng(30);
  std::vector<std::uint32_t> a(h.num_nodes());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i % 4;  // round robin
  const part::Partition init(a, 4);
  const double before = part::cut_nets(h, init);
  const part::KWayFmResult r = part::kway_fm_refine(h, init, part::KWayFmOptions{});
  EXPECT_LT(r.cut, 0.6 * before);
}

TEST(KWayFm, RespectsSizeBounds) {
  const graph::Hypergraph h = planted(120, 3, 31, 0.85);
  std::vector<std::uint32_t> a(h.num_nodes());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i % 3;
  part::KWayFmOptions opts;
  opts.min_cluster_size = 30;
  opts.max_cluster_size = 50;
  const part::KWayFmResult r =
      part::kway_fm_refine(h, part::Partition(a, 3), opts);
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_GE(r.partition.cluster_size(c), 30u);
    EXPECT_LE(r.partition.cluster_size(c), 50u);
  }
}

TEST(KWayFm, BipartitionCaseMatchesPlainFm) {
  // With k = 2 the pairwise sweep IS one FM run on the (strict = full)
  // netlist, so the result should be at least as good as the initial.
  const graph::Hypergraph h = planted(100, 2, 32, 0.85);
  std::vector<std::uint32_t> a(h.num_nodes());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i % 2;
  const part::Partition init(a, 2);
  const part::KWayFmResult r =
      part::kway_fm_refine(h, init, part::KWayFmOptions{});
  EXPECT_LT(r.cut, part::cut_nets(h, init));
  EXPECT_EQ(r.partition.k(), 2u);
}

// --- Spectral k-means -------------------------------------------------------

TEST(Kmeans, ProducesKNonEmptyClusters) {
  const graph::Hypergraph h = planted(90, 3, 23);
  for (std::uint32_t k : {2u, 3u, 5u}) {
    const part::Partition p =
        spectral::kmeans_partition(h, k, spectral::KmeansOptions{});
    EXPECT_EQ(p.k(), k);
    EXPECT_EQ(p.num_nonempty(), k) << "k=" << k;
  }
}

TEST(Kmeans, RecoversPlantedClusters) {
  const graph::Hypergraph h = planted(120, 3, 24, 0.92);
  const part::Partition p =
      spectral::kmeans_partition(h, 3, spectral::KmeansOptions{});
  std::vector<std::uint32_t> rr(h.num_nodes());
  for (std::size_t i = 0; i < rr.size(); ++i) rr[i] = i % 3;
  EXPECT_LT(part::scaled_cost(h, p),
            0.5 * part::scaled_cost(h, part::Partition(rr, 3)));
}

TEST(Kmeans, DeterministicForFixedSeed) {
  const graph::Hypergraph h = planted(70, 3, 25);
  const auto a = spectral::kmeans_partition(h, 3, spectral::KmeansOptions{});
  const auto b = spectral::kmeans_partition(h, 3, spectral::KmeansOptions{});
  EXPECT_EQ(a.assignment(), b.assignment());
}

TEST(Kmeans, RejectsBadK) {
  const graph::Hypergraph h = planted(20, 2, 26);
  EXPECT_THROW(spectral::kmeans_partition(h, 1, spectral::KmeansOptions{}),
               Error);
  EXPECT_THROW(spectral::kmeans_partition(h, 100, spectral::KmeansOptions{}),
               Error);
}

}  // namespace
}  // namespace specpart
