// Tests for the symmetric CSR sparse matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/sparse.h"
#include "util/rng.h"

namespace specpart::linalg {
namespace {

/// Random symmetric n x n matrix, a few off-diagonals per row, with row 0
/// empty and row 1 diagonal-only (n >= 2).
SymCsrMatrix random_sparse(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (std::size_t i = 1; i < n; ++i) {
    triplets.push_back({i, i, rng.next_normal()});
    if (i == 1) continue;
    for (int rep = 0; rep < 4; ++rep) {
      const std::size_t j = 2 + rng.next_below(n - 2);
      if (j != i)
        triplets.push_back({std::min(i, j), std::max(i, j), rng.next_normal()});
    }
  }
  return SymCsrMatrix(n, triplets);
}

TEST(SymCsr, MirrorsOffDiagonals) {
  SymCsrMatrix m(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  EXPECT_EQ(m.nnz(), 4u);
}

TEST(SymCsr, DuplicatesSummed) {
  SymCsrMatrix m(2, {{0, 1, 1.0}, {1, 0, 2.0}, {0, 0, 5.0}, {0, 0, 1.0}});
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);  // 1.0 + mirrored 2.0
  EXPECT_DOUBLE_EQ(m.at(0, 0), 6.0);
}

TEST(SymCsr, TraceAndGershgorin) {
  // Laplacian of a triangle: diag 2, off -1; lambda_max = 3; bound = 4.
  SymCsrMatrix m(3, {{0, 0, 2.0}, {1, 1, 2.0}, {2, 2, 2.0},
                     {0, 1, -1.0}, {1, 2, -1.0}, {0, 2, -1.0}});
  EXPECT_DOUBLE_EQ(m.trace(), 6.0);
  EXPECT_DOUBLE_EQ(m.gershgorin_upper(), 4.0);
}

TEST(SymCsr, MatvecMatchesDense) {
  Rng rng(99);
  const std::size_t n = 20;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, rng.next_normal()});
    for (int rep = 0; rep < 3; ++rep) {
      const std::size_t j = rng.next_below(n);
      if (j != i)
        triplets.push_back({std::min(i, j), std::max(i, j), rng.next_normal()});
    }
  }
  SymCsrMatrix sparse(n, triplets);
  const DenseMatrix dense = sparse.to_dense();
  Vec x(n);
  for (double& v : x) v = rng.next_normal();
  const Vec ys = sparse.matvec(x);
  const Vec yd = dense.matvec(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SymCsr, DenseRoundTripSymmetric) {
  SymCsrMatrix m(4, {{0, 3, 1.5}, {1, 2, -2.5}, {2, 2, 4.0}});
  const DenseMatrix d = m.to_dense();
  EXPECT_LT(d.max_abs_diff(d.transposed()), 1e-15);
}

TEST(SymCsr, EmptyMatrix) {
  SymCsrMatrix m(5, {});
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.nnz(), 0u);
  const Vec y = m.matvec(Vec(5, 1.0));
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SymCsr, RowIteration) {
  SymCsrMatrix m(3, {{0, 1, 1.0}, {0, 2, 2.0}});
  double row0 = 0.0;
  for (std::size_t k = m.row_begin(0); k < m.row_end(0); ++k)
    row0 += m.value(k);
  EXPECT_DOUBLE_EQ(row0, 3.0);
  EXPECT_EQ(m.row_end(1) - m.row_begin(1), 1u);
}

TEST(SymCsr, SpmmMatchesColumnMatvecBitForBit) {
  // Widths 1-33 run every chunk of the accumulation loop (16, 8, 4, 2, 1)
  // and every remainder; n = 3000 spans several 1024-row blocks. The auto
  // lane is 8 threads under test_sparse_mt.
  for (const std::size_t n : {1, 2, 700, 3000}) {
    const SymCsrMatrix m = random_sparse(n, 11 + n);
    if (n >= 2) {
      EXPECT_EQ(m.row_end(0) - m.row_begin(0), 0u);
      EXPECT_EQ(m.row_end(1) - m.row_begin(1), 1u);
    }
    for (std::size_t b = 1; b <= 33; ++b) {
      Rng rng(1000 * n + b);
      Panel x(n, b);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t c = 0; c < b; ++c) x.at(i, c) = rng.next_normal();
      std::vector<Vec> expect;
      for (std::size_t c = 0; c < b; ++c) expect.push_back(m.matvec(x.col(c)));
      for (const std::size_t threads : {1, 2, 8, 0}) {
        Panel y(n, b, std::nan(""));
        m.spmm(x, y, ParallelConfig::with_threads(threads));
        for (std::size_t c = 0; c < b; ++c)
          ASSERT_EQ(std::memcmp(y.col(c).data(), expect[c].data(),
                                n * sizeof(double)),
                    0)
              << "n=" << n << " b=" << b << " column " << c
              << " threads=" << threads;
      }
    }
  }
}

TEST(SymCsrDeathTest, SpmmRejectsAliasedPanels) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const SymCsrMatrix m = random_sparse(8, 3);
  Panel x(8, 3, 1.0);
  EXPECT_DEATH(m.spmm(x, x), "&x != &y");
}

}  // namespace
}  // namespace specpart::linalg
