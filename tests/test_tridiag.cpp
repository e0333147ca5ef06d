// Tests for the Householder + implicit-QL symmetric eigensolver.
//
// Oracles: analytically known spectra (diagonal matrices, path-graph
// Laplacians) and the defining properties A v = lambda v, V^T V = I,
// A = V diag(lambda) V^T, verified over randomized sizes via TEST_P.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "linalg/symmetric_eigen.h"
#include "linalg/tridiagonal.h"
#include "util/rng.h"

namespace specpart::linalg {
namespace {

DenseMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.next_normal();
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  return a;
}

/// Laplacian of the unweighted path graph P_n: eigenvalues are
/// 2 - 2 cos(pi k / n), k = 0..n-1.
DenseMatrix path_laplacian(std::size_t n) {
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double deg = 0.0;
    if (i > 0) {
      a.at(i, i - 1) = -1.0;
      deg += 1.0;
    }
    if (i + 1 < n) {
      a.at(i, i + 1) = -1.0;
      deg += 1.0;
    }
    a.at(i, i) = deg;
  }
  return a;
}

TEST(Tridiagonal, DiagonalMatrixEigenvaluesSorted) {
  Tridiagonal t{{5.0, 1.0, 3.0}, {0.0, 0.0, 0.0}};
  const Vec values = tridiagonal_eigenvalues(std::move(t));
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 3.0);
  EXPECT_DOUBLE_EQ(values[2], 5.0);
}

TEST(Tridiagonal, TwoByTwoKnown) {
  // [[2, 1], [1, 2]] -> eigenvalues 1, 3.
  Tridiagonal t{{2.0, 2.0}, {0.0, 1.0}};
  const Vec values = tridiagonal_eigenvalues(std::move(t));
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, PathLaplacianSpectrum) {
  const std::size_t n = 12;
  const EigenDecomposition dec = solve_symmetric_eigen(path_laplacian(n));
  for (std::size_t k = 0; k < n; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(M_PI * static_cast<double>(k) /
                             static_cast<double>(n));
    EXPECT_NEAR(dec.values[k], expected, 1e-10) << "k=" << k;
  }
}

TEST(SymmetricEigen, TrivialSizes) {
  EigenDecomposition d0 = solve_symmetric_eigen(DenseMatrix(0, 0));
  EXPECT_TRUE(d0.values.empty());
  DenseMatrix one(1, 1);
  one.at(0, 0) = 42.0;
  EigenDecomposition d1 = solve_symmetric_eigen(one);
  ASSERT_EQ(d1.values.size(), 1u);
  EXPECT_DOUBLE_EQ(d1.values[0], 42.0);
  EXPECT_DOUBLE_EQ(d1.vectors.at(0, 0), 1.0);
}

TEST(SymmetricEigen, SmallestTruncates) {
  const EigenDecomposition dec =
      solve_symmetric_eigen_smallest(path_laplacian(10), 3);
  ASSERT_EQ(dec.values.size(), 3u);
  EXPECT_EQ(dec.vectors.cols(), 3u);
  EXPECT_EQ(dec.vectors.rows(), 10u);
  EXPECT_NEAR(dec.values[0], 0.0, 1e-10);
}

class SymmetricEigenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymmetricEigenSweep, ReconstructsMatrix) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 100 + n);
  const EigenDecomposition dec = solve_symmetric_eigen(a);

  // A = V diag(lambda) V^T.
  DenseMatrix lambda(n, n);
  for (std::size_t i = 0; i < n; ++i) lambda.at(i, i) = dec.values[i];
  const DenseMatrix recon =
      dec.vectors.multiply(lambda).multiply(dec.vectors.transposed());
  EXPECT_LT(recon.max_abs_diff(a), 1e-9 * (1.0 + a.frobenius()));
}

TEST_P(SymmetricEigenSweep, VectorsOrthonormal) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 200 + n);
  const EigenDecomposition dec = solve_symmetric_eigen(a);
  const DenseMatrix gram = dec.vectors.transposed().multiply(dec.vectors);
  EXPECT_LT(gram.max_abs_diff(DenseMatrix::identity(n)), 1e-10);
}

TEST_P(SymmetricEigenSweep, ValuesAscending) {
  const std::size_t n = GetParam();
  const EigenDecomposition dec =
      solve_symmetric_eigen(random_symmetric(n, 300 + n));
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(dec.values[i - 1], dec.values[i]);
}

TEST_P(SymmetricEigenSweep, ResidualsSmall) {
  const std::size_t n = GetParam();
  const DenseMatrix a = random_symmetric(n, 400 + n);
  const EigenDecomposition dec = solve_symmetric_eigen(a);
  for (std::size_t j = 0; j < n; ++j) {
    const Vec v = dec.vectors.col(j);
    const Vec av = a.matvec(v);
    Vec residual = av;
    axpy(-dec.values[j], v, residual);
    EXPECT_LT(norm(residual), 1e-9 * (1.0 + std::fabs(dec.values[j])))
        << "eigenpair " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55));

TEST(SymmetricEigen, RepeatedEigenvaluesHandled) {
  // 2 I_4 plus a rank-1 bump: eigenvalues {2, 2, 2, 6}.
  DenseMatrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) a.at(i, j) = (i == j ? 3.0 : 1.0);
  const EigenDecomposition dec = solve_symmetric_eigen(a);
  EXPECT_NEAR(dec.values[0], 2.0, 1e-10);
  EXPECT_NEAR(dec.values[1], 2.0, 1e-10);
  EXPECT_NEAR(dec.values[2], 2.0, 1e-10);
  EXPECT_NEAR(dec.values[3], 6.0, 1e-10);
}

TEST(Householder, TridiagonalIsSimilar) {
  const std::size_t n = 9;
  const DenseMatrix a = random_symmetric(n, 77);
  DenseMatrix q;
  const Tridiagonal t = householder_tridiagonalize(a, &q);
  // Rebuild T as a dense matrix and check Q T Q^T = A.
  DenseMatrix tm(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    tm.at(i, i) = t.diag[i];
    if (i >= 1) {
      tm.at(i, i - 1) = t.off[i];
      tm.at(i - 1, i) = t.off[i];
    }
  }
  const DenseMatrix recon = q.multiply(tm).multiply(q.transposed());
  EXPECT_LT(recon.max_abs_diff(a), 1e-10 * (1.0 + a.frobenius()));
}

/// Reference: EISPACK tred2 as householder_tridiagonalize ran it before
/// its inner loops moved to contiguous rows — element access through at(),
/// each g_j's column part read down column j.
Tridiagonal reference_tred2(DenseMatrix a, DenseMatrix& q) {
  const std::size_t n = a.rows();
  Vec d(n, 0.0);
  Vec e(n, 0.0);
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(a.at(i, k));
      if (scale == 0.0) {
        e[i] = a.at(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a.at(i, k) /= scale;
          h += a.at(i, k) * a.at(i, k);
        }
        double f = a.at(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a.at(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          a.at(j, i) = a.at(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += a.at(j, k) * a.at(i, k);
          for (std::size_t k = j + 1; k <= l; ++k)
            g += a.at(k, j) * a.at(i, k);
          e[j] = g / h;
          f += e[j] * a.at(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = a.at(i, j);
          e[j] = g = e[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k)
            a.at(j, k) -= f * e[k] + g * a.at(i, k);
        }
      }
    } else {
      e[i] = a.at(i, l);
    }
    d[i] = h;
    if (i == 1) break;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < i; ++k) g += a.at(i, k) * a.at(k, j);
        for (std::size_t k = 0; k < i; ++k) a.at(k, j) -= g * a.at(k, i);
      }
    }
    d[i] = a.at(i, i);
    a.at(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      a.at(j, i) = 0.0;
      a.at(i, j) = 0.0;
    }
  }
  q = std::move(a);
  return Tridiagonal{std::move(d), std::move(e)};
}

bool same_bits(const Vec& a, const Vec& b) {
  // memcmp must not see the null data() of an empty vector.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_tred2_matches_reference(const DenseMatrix& a,
                                    const std::string& what) {
  DenseMatrix q_got, q_want;
  const Tridiagonal got = householder_tridiagonalize(a, &q_got);
  const Tridiagonal want = reference_tred2(a, q_want);
  EXPECT_TRUE(same_bits(got.diag, want.diag)) << what;
  EXPECT_TRUE(same_bits(got.off, want.off)) << what;
  ASSERT_EQ(q_got.rows(), q_want.rows()) << what;
  EXPECT_EQ(std::memcmp(q_got.data(), q_want.data(),
                        q_got.rows() * q_got.cols() * sizeof(double)),
            0)
      << what;
}

TEST(Householder, RowOrderedTred2MatchesEispackBitForBit) {
  for (const std::size_t n : {1, 2, 3, 31, 385})
    expect_tred2_matches_reference(random_symmetric(n, 500 + n),
                                   "random n=" + std::to_string(n));
  // An all-zero row and column: tred2's scale == 0 branch at that row.
  DenseMatrix holed = random_symmetric(31, 9);
  for (std::size_t k = 0; k < 31; ++k) {
    holed.at(10, k) = 0.0;
    holed.at(k, 10) = 0.0;
  }
  expect_tred2_matches_reference(holed, "zero row");
  // Diagonal: every row takes the scale == 0 branch.
  DenseMatrix diagonal(31, 31);
  for (std::size_t i = 0; i < 31; ++i) diagonal.at(i, i) = 1.0 + double(i % 7);
  expect_tred2_matches_reference(diagonal, "diagonal");
}

/// tridiagonal_eigen_last_row against the full QL on the same T: the
/// eigenvalues and the last row of the eigenvector matrix, bit for bit.
void expect_last_row_matches_full_ql(const Tridiagonal& t,
                                     const std::string& what) {
  const std::size_t n = t.diag.size();
  Tridiagonal full = t;
  DenseMatrix z = DenseMatrix::identity(n);
  tridiagonal_eigen(full, z);
  Tridiagonal one = t;
  const Vec row = tridiagonal_eigen_last_row(one);
  EXPECT_TRUE(same_bits(one.diag, full.diag)) << what;
  EXPECT_TRUE(same_bits(row, n == 0 ? Vec{} : z.row(n - 1))) << what;
}

/// Random T in Tridiagonal's layout; every `split`-th coupling is zero
/// (0 = none), which makes QL deflate into independent blocks.
Tridiagonal random_tridiagonal(std::size_t n, std::size_t split,
                               std::uint64_t seed) {
  Rng rng(seed);
  Tridiagonal t{Vec(n), Vec(n, 0.0)};
  for (std::size_t i = 0; i < n; ++i) {
    t.diag[i] = rng.next_normal();
    if (i > 0) t.off[i] = (split != 0 && i % split == 0) ? 0.0
                                                         : rng.next_normal();
  }
  return t;
}

TEST(Tridiagonal, LastRowMatchesFullQlBitForBit) {
  for (const std::size_t n : {0, 1, 2, 3, 10, 57, 200, 320})
    for (const std::size_t split : {0, 4, 25})
      expect_last_row_matches_full_ql(
          random_tridiagonal(n, split, 900 + n + split),
          "n=" + std::to_string(n) + " split=" + std::to_string(split));
  // A Lanczos T: the projection of a path Laplacian (repeated and
  // clustered Ritz values), and a graded one spanning 20 decades.
  const std::size_t m = 120;
  Tridiagonal path{Vec(m, 2.0), Vec(m, -1.0)};
  path.off[0] = 0.0;
  expect_last_row_matches_full_ql(path, "path");
  Tridiagonal graded = random_tridiagonal(m, 0, 77);
  for (std::size_t i = 0; i < m; ++i) {
    const double s = std::pow(10.0, -10.0 + 20.0 * double(i) / double(m));
    graded.diag[i] *= s;
    graded.off[i] *= s;
  }
  expect_last_row_matches_full_ql(graded, "graded");
  // Diagonal (every coupling zero) and a block of equal diagonal entries.
  expect_last_row_matches_full_ql(Tridiagonal{Vec{5, 1, 3, 1}, Vec(4, 0.0)},
                                  "diagonal");
  Tridiagonal flat = random_tridiagonal(40, 7, 5);
  for (double& x : flat.diag) x = 1.0;
  expect_last_row_matches_full_ql(flat, "equal diagonal");
}

}  // namespace
}  // namespace specpart::linalg
