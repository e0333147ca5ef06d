// Tests for the DP-RP dynamic program, validated against brute-force
// enumeration of all contiguous splits on small instances.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <numeric>

#include "graph/generator.h"
#include "part/objectives.h"
#include "spectral/dprp.h"
#include "util/error.h"
#include "util/rng.h"

namespace specpart::spectral {
namespace {

/// Brute force over all contiguous k-way splits of the ordering.
double brute_force_best(const graph::Hypergraph& h, const part::Ordering& o,
                        std::uint32_t k, std::size_t lo, std::size_t hi) {
  const std::size_t n = o.size();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> bounds(k + 1, 0);
  bounds[k] = n;
  // bounds[1..k-1] enumerated; last cluster implicit.
  std::function<void(std::uint32_t, std::size_t)> rec2 =
      [&](std::uint32_t level, std::size_t start) {
        if (level == k - 1) {
          const std::size_t len = n - start;
          if (len < lo || len > hi) return;
          std::vector<std::uint32_t> assignment(n, 0);
          std::size_t pos = 0;
          std::size_t cluster_start = 0;
          for (std::uint32_t c = 0; c + 1 < k; ++c) {
            for (; pos < bounds[c + 1]; ++pos) assignment[o[pos]] = c;
            cluster_start = bounds[c + 1];
          }
          (void)cluster_start;
          for (; pos < n; ++pos) assignment[o[pos]] = k - 1;
          best = std::min(best, part::scaled_cost(
                                    h, part::Partition(assignment, k)));
          return;
        }
        for (std::size_t len = lo; len <= hi && start + len <= n; ++len) {
          bounds[level + 1] = start + len;
          rec2(level + 1, start + len);
        }
      };
  rec2(0, 0);
  return best;
}

graph::Hypergraph random_netlist(std::size_t n, std::size_t nets,
                                 std::uint64_t seed) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = nets;
  cfg.num_clusters = 3;
  cfg.subclusters_per_cluster = 1;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

class DprpBrute
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {
};

TEST_P(DprpBrute, MatchesBruteForce) {
  const auto [n, k] = GetParam();
  const graph::Hypergraph h = random_netlist(n, n + 10, 31 + n + k);
  part::Ordering o(n);
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(n * 7 + k);
  rng.shuffle(o);

  DprpOptions opts;
  opts.k = k;
  const DprpResult r = dprp_split(h, o, opts);
  ASSERT_TRUE(r.feasible);
  const double brute = brute_force_best(h, o, k, 1, n);
  EXPECT_NEAR(r.scaled_cost, brute, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, DprpBrute,
    ::testing::Combine(::testing::Values<std::size_t>(8, 10, 12, 14),
                       ::testing::Values<std::uint32_t>(2, 3, 4)));

TEST(Dprp, RespectsSizeBounds) {
  const graph::Hypergraph h = random_netlist(30, 40, 5);
  part::Ordering o(30);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 3;
  opts.min_cluster_size = 8;
  opts.max_cluster_size = 12;
  const DprpResult r = dprp_split(h, o, opts);
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_GE(r.partition.cluster_size(c), 8u);
    EXPECT_LE(r.partition.cluster_size(c), 12u);
  }
}

TEST(Dprp, BoundsMatchBruteForce) {
  const graph::Hypergraph h = random_netlist(12, 20, 6);
  part::Ordering o(12);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 3;
  opts.min_cluster_size = 3;
  opts.max_cluster_size = 6;
  const DprpResult r = dprp_split(h, o, opts);
  EXPECT_NEAR(r.scaled_cost, brute_force_best(h, o, 3, 3, 6), 1e-12);
}

TEST(Dprp, InfeasibleBoundsThrow) {
  const graph::Hypergraph h = random_netlist(10, 15, 7);
  part::Ordering o(10);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 3;
  opts.min_cluster_size = 5;  // 3 * 5 > 10
  EXPECT_THROW(dprp_split(h, o, opts), Error);
}

TEST(Dprp, KTooSmallThrows) {
  const graph::Hypergraph h = random_netlist(10, 15, 8);
  part::Ordering o(10);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 1;
  EXPECT_THROW(dprp_split(h, o, opts), Error);
}

TEST(Dprp, BoundariesConsistentWithPartition) {
  const graph::Hypergraph h = random_netlist(25, 35, 9);
  part::Ordering o(25);
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(10);
  rng.shuffle(o);
  DprpOptions opts;
  opts.k = 4;
  const DprpResult r = dprp_split(h, o, opts);
  ASSERT_EQ(r.boundaries.size(), 5u);
  EXPECT_EQ(r.boundaries.front(), 0u);
  EXPECT_EQ(r.boundaries.back(), 25u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(r.partition.cluster_size(c),
              r.boundaries[c + 1] - r.boundaries[c]);
    for (std::size_t pos = r.boundaries[c]; pos < r.boundaries[c + 1]; ++pos)
      EXPECT_EQ(r.partition.cluster_of(o[pos]), c);
  }
}

TEST(Dprp, ScaledCostMatchesObjectiveModule) {
  const graph::Hypergraph h = random_netlist(40, 55, 12);
  part::Ordering o(40);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 5;
  const DprpResult r = dprp_split(h, o, opts);
  EXPECT_NEAR(r.scaled_cost, part::scaled_cost(h, r.partition), 1e-12);
}

}  // namespace
}  // namespace specpart::spectral
