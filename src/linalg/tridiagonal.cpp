#include "linalg/tridiagonal.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"

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
}  // namespace

Tridiagonal householder_tridiagonalize(DenseMatrix a, DenseMatrix* accumulated) {
  const std::size_t n = a.rows();
  SP_ASSERT(a.cols() == n);
  Vec d(n, 0.0);
  Vec e(n, 0.0);

  // Householder reduction (EISPACK tred2, 0-based).
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
    if (i == 1) break;  // avoid size_t underflow
  }
  d[0] = 0.0;
  e[0] = 0.0;

  // Accumulate the transformation.
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

  // Shift the off-diagonal so e[i] couples rows i and i+1 (tql2 layout).
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  // The rotations and the closing sort act on eigenvector columns; on the
  // transpose each is a pass over two contiguous rows. Every element sees
  // tql2's operations in tql2's order, so the bits match the column form,
  // which stored bases and the golden response digests rely on.
  transpose_square(z);

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
          double f = s * e[i];
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
          double* zi = z.data() + i * n;
          double* zi1 = zi + n;
          for (std::size_t k = 0; k < n; ++k) {
            f = zi1[k];
            zi1[k] = s * zi[k] + c * f;
            zi[k] = c * zi[k] - s * f;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }

  // Sort eigenpairs ascending by eigenvalue (selection sort on the rows of
  // the transpose).
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
      std::swap_ranges(z.data() + i * n, z.data() + (i + 1) * n,
                       z.data() + k * n);
    }
  }
  transpose_square(z);
}

Vec tridiagonal_eigenvalues(Tridiagonal t) {
  const std::size_t n = t.diag.size();
  DenseMatrix z = DenseMatrix::identity(n);
  tridiagonal_eigen(t, z);
  return t.diag;
}

}  // namespace specpart::linalg
