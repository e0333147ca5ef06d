// Tests for the synthetic netlist generator: determinism, connectivity,
// size fidelity, and that the planted structure is actually present
// (intra-cluster nets dominate).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generator.h"
#include "util/error.h"

namespace specpart::graph {
namespace {

GeneratorConfig small_config() {
  GeneratorConfig cfg;
  cfg.num_modules = 300;
  cfg.num_nets = 330;
  cfg.num_clusters = 4;
  cfg.subclusters_per_cluster = 2;
  cfg.seed = 42;
  return cfg;
}

TEST(Generator, Deterministic) {
  const Hypergraph a = generate_netlist(small_config());
  const Hypergraph b = generate_netlist(small_config());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (NetId e = 0; e < a.num_nets(); ++e)
    EXPECT_TRUE(std::ranges::equal(a.net(e), b.net(e))) << "net " << e;
}

TEST(Generator, SeedChangesOutput) {
  GeneratorConfig cfg = small_config();
  const Hypergraph a = generate_netlist(cfg);
  cfg.seed = 43;
  const Hypergraph b = generate_netlist(cfg);
  bool any_diff = a.num_nets() != b.num_nets();
  for (NetId e = 0; !any_diff && e < a.num_nets(); ++e)
    any_diff = !std::ranges::equal(a.net(e), b.net(e));
  EXPECT_TRUE(any_diff);
}

TEST(Generator, AlwaysConnected) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GeneratorConfig cfg = small_config();
    cfg.seed = seed;
    EXPECT_TRUE(generate_netlist(cfg).connected()) << "seed " << seed;
  }
}

TEST(Generator, RespectsModuleCount) {
  const Hypergraph h = generate_netlist(small_config());
  EXPECT_EQ(h.num_nodes(), 300u);
}

TEST(Generator, NetCountApproximate) {
  const Hypergraph h = generate_netlist(small_config());
  // Connectivity repair may append a few 2-pin nets.
  EXPECT_GE(h.num_nets(), 330u);
  EXPECT_LE(h.num_nets(), 330u + 20u);
}

TEST(Generator, NetSizesWithinBounds) {
  GeneratorConfig cfg = small_config();
  cfg.max_net_size = 8;
  const Hypergraph h = generate_netlist(cfg);
  for (NetId e = 0; e < h.num_nets(); ++e) {
    EXPECT_GE(h.net(e).size(), 2u);
    EXPECT_LE(h.net(e).size(), 8u);
  }
}

TEST(Generator, MostNetsAreSmall) {
  const Hypergraph h = generate_netlist(small_config());
  std::size_t small_nets = 0;
  for (NetId e = 0; e < h.num_nets(); ++e)
    if (h.net(e).size() <= 4) ++small_nets;
  EXPECT_GT(small_nets, h.num_nets() * 3 / 5);
}

TEST(Generator, PlantedClustersCoverAll) {
  const GeneratorConfig cfg = small_config();
  const auto planted = planted_clusters(cfg);
  ASSERT_EQ(planted.size(), cfg.num_modules);
  std::set<std::uint32_t> distinct(planted.begin(), planted.end());
  EXPECT_EQ(distinct.size(), cfg.num_clusters);
}

TEST(Generator, PlantedStructureDominates) {
  const GeneratorConfig cfg = small_config();
  const Hypergraph h = generate_netlist(cfg);
  const auto planted = planted_clusters(cfg);
  std::size_t intra = 0, counted = 0;
  for (NetId e = 0; e < h.num_nets(); ++e) {
    const auto& pins = h.net(e);
    if (pins.size() < 2) continue;
    ++counted;
    bool same = true;
    for (NodeId v : pins) same = same && planted[v] == planted[pins[0]];
    if (same) ++intra;
  }
  // p_subcluster + p_cluster defaults to 0.80; allow generous slack.
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(counted), 0.70);
}

TEST(Generator, PlantedMatchesGeneratorLayout) {
  // planted_clusters must reproduce the exact layout the netlist used:
  // regenerate twice and compare.
  const GeneratorConfig cfg = small_config();
  EXPECT_EQ(planted_clusters(cfg), planted_clusters(cfg));
}

TEST(Generator, ClusterCountClamped) {
  GeneratorConfig cfg;
  cfg.num_modules = 8;
  cfg.num_nets = 10;
  cfg.num_clusters = 100;  // more clusters than modules
  cfg.subclusters_per_cluster = 3;
  cfg.seed = 5;
  const Hypergraph h = generate_netlist(cfg);
  EXPECT_EQ(h.num_nodes(), 8u);
  EXPECT_TRUE(h.connected());
}

TEST(Generator, RejectsBadProbabilities) {
  GeneratorConfig cfg = small_config();
  cfg.p_subcluster = 0.8;
  cfg.p_cluster = 0.5;  // sums over 1
  EXPECT_THROW(generate_netlist(cfg), Error);
}

TEST(Generator, RejectsTinyInstance) {
  GeneratorConfig cfg;
  cfg.num_modules = 1;
  EXPECT_THROW(generate_netlist(cfg), Error);
}

}  // namespace
}  // namespace specpart::graph
