// Tests for the vector partitioning problem module.
#include <gtest/gtest.h>

#include "core/vecpart.h"
#include "util/error.h"

namespace specpart::core {
namespace {

VectorInstance make_instance(std::vector<std::vector<double>> rows) {
  VectorInstance inst;
  inst.vectors = linalg::DenseMatrix(rows.size(), rows[0].size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < rows[i].size(); ++j)
      inst.vectors.at(i, j) = rows[i][j];
  return inst;
}

TEST(VecPart, SubsetVectors) {
  const VectorInstance inst =
      make_instance({{1, 0}, {0, 1}, {1, 1}, {-1, 0}});
  const part::Partition p({0, 0, 1, 1}, 2);
  const auto sums = subset_vectors(inst, p);
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_DOUBLE_EQ(sums[0][0], 1.0);
  EXPECT_DOUBLE_EQ(sums[0][1], 1.0);
  EXPECT_DOUBLE_EQ(sums[1][0], 0.0);
  EXPECT_DOUBLE_EQ(sums[1][1], 1.0);
}

TEST(VecPart, SumOfSquaredMagnitudes) {
  const VectorInstance inst = make_instance({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(sum_of_squared_magnitudes(inst, part::Partition({0, 0}, 1)),
                   25.0);
  EXPECT_DOUBLE_EQ(sum_of_squared_magnitudes(inst, part::Partition({0, 1}, 2)),
                   9.0 + 16.0);
}

TEST(VecPart, MaxSumGroupsAlignedVectors) {
  // Two aligned pairs; max-sum wants aligned vectors together.
  const VectorInstance inst =
      make_instance({{1, 0}, {1, 0}, {0, 1}, {0, 1}});
  const part::Partition p = solve_max_sum_exact(inst, 2, 2, 2);
  EXPECT_EQ(p.cluster_of(0), p.cluster_of(1));
  EXPECT_EQ(p.cluster_of(2), p.cluster_of(3));
  EXPECT_NE(p.cluster_of(0), p.cluster_of(2));
  EXPECT_DOUBLE_EQ(sum_of_squared_magnitudes(inst, p), 8.0);
}

TEST(VecPart, MinSumSeparatesAlignedVectors) {
  const VectorInstance inst =
      make_instance({{1, 0}, {1, 0}, {-1, 0}, {-1, 0}});
  const part::Partition p = solve_min_sum_exact(inst, 2, 2, 2);
  // Best min-sum pairs each +x with a -x: both subset sums are zero.
  EXPECT_DOUBLE_EQ(sum_of_squared_magnitudes(inst, p), 0.0);
}

TEST(VecPart, ExactRespectsSizeConstraints) {
  const VectorInstance inst =
      make_instance({{5, 0}, {5, 0}, {5, 0}, {0.1, 0}});
  // Unconstrained max-sum puts everything in one cluster; with sizes
  // forced to 2+2 it cannot.
  const part::Partition p = solve_max_sum_exact(inst, 2, 2, 2);
  EXPECT_EQ(p.cluster_size(0), 2u);
  EXPECT_EQ(p.cluster_size(1), 2u);
}

TEST(VecPart, UnconstrainedMaxSumMergesEverything) {
  const VectorInstance inst = make_instance({{1, 0}, {1, 0}, {1, 0}});
  const part::Partition p = solve_max_sum_exact(inst, 2);
  // All three vectors aligned: one cluster of 3 dominates (9 > any split).
  EXPECT_EQ(std::max(p.cluster_size(0), p.cluster_size(1)), 3u);
}

TEST(VecPart, ExactRejectsHugeInstances) {
  VectorInstance inst;
  inst.vectors = linalg::DenseMatrix(30, 2);
  EXPECT_THROW(solve_max_sum_exact(inst, 4), Error);
}

TEST(VecPart, ExactRejectsInfeasibleConstraints) {
  const VectorInstance inst = make_instance({{1, 0}, {0, 1}});
  EXPECT_THROW(solve_max_sum_exact(inst, 2, 2, 2), Error);
}

}  // namespace
}  // namespace specpart::core
