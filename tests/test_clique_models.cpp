// Tests for hyperedge-to-graph net models.
//
// Includes a Monte Carlo check of the partitioning-specific model's defining
// property: conditioned on a uniform random bipartition cutting the net, the
// expected total cost of cut clique edges is 1.
#include <gtest/gtest.h>

#include <cmath>

#include "model/clique_models.h"
#include "util/rng.h"

namespace specpart::model {
namespace {

TEST(CliqueCost, StandardModel) {
  EXPECT_DOUBLE_EQ(clique_edge_cost(NetModel::kStandard, 2), 1.0);
  EXPECT_DOUBLE_EQ(clique_edge_cost(NetModel::kStandard, 3), 0.5);
  EXPECT_DOUBLE_EQ(clique_edge_cost(NetModel::kStandard, 5), 0.25);
}

TEST(CliqueCost, FrankleModel) {
  EXPECT_DOUBLE_EQ(clique_edge_cost(NetModel::kFrankle, 2), 1.0);
  EXPECT_NEAR(clique_edge_cost(NetModel::kFrankle, 8), std::pow(0.25, 1.5),
              1e-15);
}

TEST(CliqueCost, PartitioningSpecificTwoPin) {
  // s=2: 4 * (1 - 1/2) / 2 = 1: a 2-pin net cut costs exactly 1.
  EXPECT_DOUBLE_EQ(clique_edge_cost(NetModel::kPartitioningSpecific, 2), 1.0);
}

TEST(CliqueCost, AllModelsDecreaseWithSize) {
  for (NetModel m : {NetModel::kStandard, NetModel::kPartitioningSpecific,
                     NetModel::kFrankle}) {
    for (std::size_t s = 2; s < 20; ++s)
      EXPECT_GT(clique_edge_cost(m, s), clique_edge_cost(m, s + 1))
          << net_model_name(m) << " s=" << s;
  }
}

class PsModelExpectedCost : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PsModelExpectedCost, ConditionedOnCutIsOne) {
  const std::size_t s = GetParam();
  const double cost = clique_edge_cost(NetModel::kPartitioningSpecific, s);
  Rng rng(1000 + s);
  double total = 0.0;
  std::size_t cut_trials = 0;
  const std::size_t trials = 200000;
  for (std::size_t t = 0; t < trials; ++t) {
    // Random bipartition of the s pins.
    std::size_t side0 = 0;
    for (std::size_t p = 0; p < s; ++p)
      if (rng.next_bool()) ++side0;
    if (side0 == 0 || side0 == s) continue;  // net not cut
    ++cut_trials;
    total += cost * static_cast<double>(side0 * (s - side0));
  }
  ASSERT_GT(cut_trials, 0u);
  EXPECT_NEAR(total / static_cast<double>(cut_trials), 1.0, 0.02)
      << "net size " << s;
}

INSTANTIATE_TEST_SUITE_P(NetSizes, PsModelExpectedCost,
                         ::testing::Values(2, 3, 4, 5, 8, 12));

TEST(CliqueExpand, TwoPinNetIsEdge) {
  graph::Hypergraph h(3, {{0, 1}, {1, 2}});
  const graph::Graph g = clique_expand(h, NetModel::kStandard);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 2.0);
}

TEST(CliqueExpand, TriangleFromThreePinNet) {
  graph::Hypergraph h(3, {{0, 1, 2}});
  const graph::Graph g = clique_expand(h, NetModel::kStandard);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.degree(0), 1.0);  // 2 edges x 0.5 each
}

TEST(CliqueExpand, OverlappingNetsMergeWeights) {
  graph::Hypergraph h(2, {{0, 1}, {0, 1}});
  const graph::Graph g = clique_expand(h, NetModel::kStandard);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 2.0);
}

TEST(CliqueExpand, NetWeightScalesCost) {
  graph::Hypergraph h(2, {{0, 1}}, {3.0});
  const graph::Graph g = clique_expand(h, NetModel::kStandard);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 3.0);
}

TEST(CliqueExpand, SkipsLargeNets) {
  graph::Hypergraph h(5, {{0, 1, 2, 3, 4}, {0, 1}});
  const graph::Graph g = clique_expand(h, NetModel::kStandard, 4);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(CliqueExpand, SinglePinNetsIgnored) {
  graph::Hypergraph h(2, {{0}, {0, 1}});
  const graph::Graph g = clique_expand(h, NetModel::kStandard);
  EXPECT_EQ(g.num_edges(), 1u);
}

}  // namespace
}  // namespace specpart::model
