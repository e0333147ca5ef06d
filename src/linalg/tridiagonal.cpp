#include "linalg/tridiagonal.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"
#include "util/simd.h"

namespace specpart::linalg {

namespace {
inline double sign_of(double a, double b) {
  return b >= 0.0 ? std::fabs(a) : -std::fabs(a);
}

void transpose_square(DenseMatrix& z) {
  const std::size_t n = z.rows();
  double* a = z.data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      std::swap(a[i * n + j], a[j * n + i]);
}

/// EISPACK tred2 on the rows of `a` (see householder_tridiagonalize):
/// fills d and e and leaves the accumulated transformation in `a`.
void tred2_rows(DenseMatrix& a, Vec& d, Vec& e) {
  const std::size_t n = a.rows();
  // Row r of `a`, bounds-checked once per row access; column indices are
  // bounded by the loop limits below.
  double* const base = a.data();
  const auto row = [base, n](std::size_t r) {
    SP_ASSERT(r < n);
    return base + r * n;
  };

  // Householder reduction (EISPACK tred2, 0-based). tred2 forms each
  // g_j = sum_k a(j,k) u_k over the lower triangle (u = row i) from a row
  // part (k <= j) and a column part (k > j); the column part is added here
  // row by row, k ascending, after every row part, so each g_j sums the
  // same terms in the same order while every inner loop streams a
  // contiguous row. The a(j,i) stores write column i, which no g_j reads.
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* ai = row(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(ai[k]);
      if (scale == 0.0) {
        e[i] = ai[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          ai[k] /= scale;
          h += ai[k] * ai[k];
        }
        double f = ai[l];
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        ai[l] = f - g;
        for (std::size_t j = 0; j <= l; ++j) {
          const double* aj = row(j);
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += aj[k] * ai[k];
          e[j] = g;
        }
        for (std::size_t k = 1; k <= l; ++k) {
          const double* ak = row(k);
          const double uk = ai[k];
          for (std::size_t j = 0; j < k; ++j) e[j] += ak[j] * uk;
        }
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          row(j)[i] = ai[j] / h;
          e[j] /= h;
          f += e[j] * ai[j];
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          double* aj = row(j);
          f = ai[j];
          e[j] = g = e[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k) aj[k] -= f * e[k] + g * ai[k];
        }
      }
    } else {
      e[i] = ai[l];
    }
    d[i] = h;
    if (i == 1) break;  // avoid size_t underflow
  }
  d[0] = 0.0;
  e[0] = 0.0;

  // Accumulate the transformation. Step i's g_j = sum_{k<i} a(i,k) a(k,j)
  // reads row i and column j above row i, and no update of step i writes
  // either, so every g_j is formed first (row by row, k ascending: tred2's
  // order per g_j), then the updates a(k,j) -= g_j a(k,i) run row by row.
  Vec g(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* ai = row(i);
    if (d[i] != 0.0) {
      std::fill_n(g.begin(), i, 0.0);
      for (std::size_t k = 0; k < i; ++k) {
        const double* ak = row(k);
        const double aik = ai[k];
        for (std::size_t j = 0; j < i; ++j) g[j] += aik * ak[j];
      }
      for (std::size_t k = 0; k < i; ++k) {
        double* ak = row(k);
        const double aki = ak[i];
        for (std::size_t j = 0; j < i; ++j) ak[j] -= g[j] * aki;
      }
    }
    d[i] = ai[i];
    ai[i] = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      row(j)[i] = 0.0;
      ai[j] = 0.0;
    }
  }
}

/// tql2's QL iterations and closing sort (EISPACK, 0-based) on d and the
/// shifted e. The eigenvector matrix is reached only through
/// rotate(i, s, c), which rotates its columns i and i+1, and swap(i, k),
/// which swaps columns i and k, so one source serves the full matrix and a
/// single row of it with the same d and e bits.
template <class Rotate, class Swap>
void tql2(Vec& d, Vec& e, Rotate&& rotate, Swap&& swap) {
  const std::size_t n = d.size();
  constexpr double kEps = 1e-15;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= kEps * dd) break;
      }
      if (m != l) {
        SP_CHECK_INPUT(iter++ < 64, "tql2: QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + sign_of(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          rotate(i, s, c);
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }

  // Sort eigenpairs ascending by eigenvalue (selection sort).
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    double p = d[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    }
    if (k != i) {
      std::swap(d[k], d[i]);
      swap(i, k);
    }
  }
}

/// tql2 on the transpose of the eigenvector matrix (see
/// tridiagonal_eigen): each rotation and swap is a pass over two
/// contiguous rows.
void tql2_rows(Vec& d, Vec& e, DenseMatrix& z) {
  const std::size_t n = d.size();
  double* const zt = z.data();
  tql2(
      d, e,
      [zt, n](std::size_t i, double s, double c) {
        double* zi = zt + i * n;
        double* zi1 = zi + n;
        for (std::size_t k = 0; k < n; ++k) {
          const double f = zi1[k];
          zi1[k] = s * zi[k] + c * f;
          zi[k] = c * zi[k] - s * f;
        }
      },
      [zt, n](std::size_t i, std::size_t k) {
        std::swap_ranges(zt + i * n, zt + (i + 1) * n, zt + k * n);
      });
}

/// Shifts the off-diagonal so e[i] couples rows i and i+1 (tql2 layout).
void shift_off_diagonal(Vec& e) {
  const std::size_t n = e.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
}

}  // namespace

Tridiagonal householder_tridiagonalize(DenseMatrix a, DenseMatrix* accumulated) {
  const std::size_t n = a.rows();
  SP_ASSERT(a.cols() == n);
  Vec d(n, 0.0);
  Vec e(n, 0.0);
  simd::run([&] { tred2_rows(a, d, e); });
  if (accumulated != nullptr) *accumulated = std::move(a);
  return Tridiagonal{std::move(d), std::move(e)};
}

void tridiagonal_eigen(Tridiagonal& t, DenseMatrix& z) {
  Vec& d = t.diag;
  Vec& e = t.off;
  const std::size_t n = d.size();
  SP_ASSERT(e.size() == n);
  SP_ASSERT(z.rows() == n && z.cols() == n);
  if (n == 0) return;

  shift_off_diagonal(e);

  // The rotations and the closing sort act on eigenvector columns; on the
  // transpose each is a pass over two contiguous rows. Every element sees
  // tql2's operations in tql2's order, so the bits match the column form,
  // which stored bases and the golden response digests rely on.
  transpose_square(z);
  simd::run([&] { tql2_rows(d, e, z); });
  transpose_square(z);
}

Vec tridiagonal_eigen_last_row(Tridiagonal& t) {
  Vec& d = t.diag;
  Vec& e = t.off;
  const std::size_t n = d.size();
  SP_ASSERT(e.size() == n);
  Vec row(n, 0.0);
  if (n == 0) return row;
  shift_off_diagonal(e);
  // Row n-1 of the identity, rotated and permuted element by element as
  // tridiagonal_eigen does to that row of z: the same operations in the
  // same order, so the same bits, at O(1) per rotation instead of O(n).
  row[n - 1] = 1.0;
  tql2(
      d, e,
      [&row](std::size_t i, double s, double c) {
        const double f = row[i + 1];
        row[i + 1] = s * row[i] + c * f;
        row[i] = c * row[i] - s * f;
      },
      [&row](std::size_t i, std::size_t k) { std::swap(row[i], row[k]); });
  return row;
}

Vec tridiagonal_eigenvalues(Tridiagonal t) {
  const std::size_t n = t.diag.size();
  DenseMatrix z = DenseMatrix::identity(n);
  tridiagonal_eigen(t, z);
  return t.diag;
}

}  // namespace specpart::linalg
