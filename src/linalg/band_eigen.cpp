#include "linalg/band_eigen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/rng.h"

namespace specpart::linalg {

namespace {

/// Number of eigenvalues of `a` strictly below tau, via the inertia of the
/// LDL^T factorization of (a - tau I). Pivots are not permuted; a vanishing
/// pivot is nudged to a tiny negative value, which perturbs the count by at
/// most the bisection resolution — the classic spectrum-slicing trick.
std::size_t count_below(const BandMatrix& a, double tau, double anorm,
                        Vec& l, Vec& d) {
  const std::size_t n = a.n, bw = a.bw;
  const double safe = std::max(anorm, 1.0) * 1e-290;
  l.assign(n * (bw + 1), 0.0);
  d.assign(n, 0.0);
  std::size_t neg = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t k0 = j > bw ? j - bw : 0;
    double dj = a.at(j, 0) - tau;
    for (std::size_t k = k0; k < j; ++k) {
      const double ljk = l[j * (bw + 1) + (j - k)];
      dj -= ljk * ljk * d[k];
    }
    if (std::abs(dj) < safe) dj = -safe;
    d[j] = dj;
    if (dj < 0.0) ++neg;
    const std::size_t iend = std::min(n - 1, j + bw);
    for (std::size_t i = j + 1; i <= iend; ++i) {
      // a(i, j) stored when i - j <= bw
      double s = a.at(i, i - j);
      const std::size_t kk0 = i > bw ? i - bw : 0;
      for (std::size_t k = std::max(kk0, k0); k < j; ++k)
        s -= l[i * (bw + 1) + (i - k)] * l[j * (bw + 1) + (j - k)] * d[k];
      l[i * (bw + 1) + (i - j)] = s / dj;
    }
  }
  return neg;
}

/// Banded LU with partial pivoting of (a - tau I), LAPACK-style column
/// storage with kl fill rows: ab[r * n + j] = element (i, j) with
/// i = j + r - 2 * bw, r in [0, 3 * bw].
struct BandLu {
  std::size_t n = 0, bw = 0;
  Vec ab;
  std::vector<std::uint32_t> piv;

  void factor(const BandMatrix& a, double tau, double anorm) {
    n = a.n;
    bw = a.bw;
    const std::size_t rows = 3 * bw + 1;
    ab.assign(rows * n, 0.0);
    piv.assign(n, 0);
    auto at = [&](std::size_t i, std::size_t j) -> double& {
      return ab[(2 * bw + i - j) * n + j];
    };
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i0 = j > bw ? j - bw : 0;
      const std::size_t i1 = std::min(n - 1, j + bw);
      for (std::size_t i = i0; i <= i1; ++i) {
        const double v = i >= j ? a.at(i, i - j) : a.at(j, j - i);
        at(i, j) = v - (i == j ? tau : 0.0);
      }
    }
    const double tiny = std::max(anorm, 1.0) * 1e-290;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t ilast = std::min(n - 1, j + bw);
      std::size_t p = j;
      double best = std::abs(at(j, j));
      for (std::size_t i = j + 1; i <= ilast; ++i)
        if (std::abs(at(i, j)) > best) {
          best = std::abs(at(i, j));
          p = i;
        }
      piv[j] = static_cast<std::uint32_t>(p);
      const std::size_t clast = std::min(n - 1, j + 2 * bw);
      if (p != j)
        for (std::size_t c = j; c <= clast; ++c) std::swap(at(j, c), at(p, c));
      double pv = at(j, j);
      if (std::abs(pv) < tiny) pv = at(j, j) = (pv < 0.0 ? -tiny : tiny);
      for (std::size_t i = j + 1; i <= ilast; ++i) {
        const double lij = at(i, j) / pv;
        at(i, j) = lij;
        if (lij != 0.0)
          for (std::size_t c = j + 1; c <= clast; ++c)
            at(i, c) -= lij * at(j, c);
      }
    }
  }

  void solve(Vec& b) const {
    auto at = [&](std::size_t i, std::size_t j) -> double {
      return ab[(2 * bw + i - j) * n + j];
    };
    for (std::size_t j = 0; j < n; ++j) {
      if (piv[j] != j) std::swap(b[j], b[piv[j]]);
      const std::size_t ilast = std::min(n - 1, j + bw);
      const double bj = b[j];
      if (bj != 0.0)
        for (std::size_t i = j + 1; i <= ilast; ++i) b[i] -= at(i, j) * bj;
    }
    for (std::size_t jj = n; jj-- > 0;) {
      const std::size_t clast = std::min(n - 1, jj + 2 * bw);
      double s = b[jj];
      for (std::size_t c = jj + 1; c <= clast; ++c) s -= at(jj, c) * b[c];
      b[jj] = s / at(jj, jj);
    }
  }
};

/// y = a * x for the symmetric band matrix.
void band_matvec(const BandMatrix& a, const Vec& x, Vec& y) {
  const std::size_t n = a.n, bw = a.bw;
  y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a.at(i, 0) * x[i];
    const std::size_t k1 = std::min(i, bw);
    for (std::size_t k = 1; k <= k1; ++k) {
      const double v = a.at(i, k);
      y[i] += v * x[i - k];
      y[i - k] += v * x[i];
    }
  }
}

double norm2(const Vec& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

}  // namespace

BandEigenPairs band_eigen_largest(const BandMatrix& a, std::size_t count) {
  BandEigenPairs out;
  const std::size_t n = a.n;
  count = std::min(count, n);
  if (n == 0 || count == 0) {
    out.ok = true;
    return out;
  }

  // Gershgorin interval and scale.
  double glo = a.at(0, 0), ghi = a.at(0, 0), anorm = 0.0;
  {
    Vec radius(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k1 = std::min(i, a.bw);
      for (std::size_t k = 1; k <= k1; ++k) {
        const double v = std::abs(a.at(i, k));
        radius[i] += v;
        radius[i - k] += v;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      glo = std::min(glo, a.at(i, 0) - radius[i]);
      ghi = std::max(ghi, a.at(i, 0) + radius[i]);
      anorm = std::max(anorm, std::abs(a.at(i, 0)) + radius[i]);
    }
  }
  const double bis_tol = std::max(1e-14 * std::max(anorm, 1.0), 1e-300);

  Vec work_l, work_d;
  out.values.assign(count, 0.0);

  // k-th largest eigenvalue (k = 0 first) has ascending index n-1-k:
  // bracket [lo, hi] such that count_below(lo) <= n-1-k < count_below(hi).
  double hi_bound = ghi + bis_tol;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t idx = n - 1 - k;
    double lo = glo - bis_tol, hi = hi_bound;
    while (hi - lo > bis_tol + 1e-15 * std::max(std::abs(lo), std::abs(hi))) {
      const double mid = 0.5 * (lo + hi);
      if (count_below(a, mid, anorm, work_l, work_d) <= idx)
        lo = mid;
      else
        hi = mid;
    }
    out.values[k] = 0.5 * (lo + hi);
    hi_bound = hi;  // descending: the next eigenvalue is no larger
  }

  // Inverse iteration per eigenvalue, orthogonalizing inside clusters.
  out.vectors = DenseMatrix(n, count);
  const double cluster_tol = std::max(1e-7 * anorm, 100.0 * bis_tol);
  const double accept_tol = 1e-10 * std::max(anorm, 1.0);
  Rng rng(0x5EEDBA9DULL);
  BandLu lu;
  Vec x(n), y(n);
  for (std::size_t k = 0; k < count; ++k) {
    // Separate coincident shifts so repeated eigenvalues get independent
    // directions (in-cluster orthogonalization does the real work).
    std::size_t cluster_rank = 0;
    for (std::size_t j = 0; j < k; ++j)
      if (std::abs(out.values[j] - out.values[k]) <= cluster_tol)
        ++cluster_rank;
    const double tau =
        out.values[k] + static_cast<double>(cluster_rank) * 2.0 * bis_tol;
    lu.factor(a, tau, anorm);
    for (std::size_t r = 0; r < n; ++r) x[r] = rng.next_normal();
    bool accepted = false;
    for (int iter = 0; iter < 6 && !accepted; ++iter) {
      lu.solve(x);
      // Orthogonalize against accepted members of the same cluster.
      for (int sweep = 0; sweep < 2; ++sweep)
        for (std::size_t j = 0; j < k; ++j) {
          if (std::abs(out.values[j] - out.values[k]) > cluster_tol) continue;
          double c = 0.0;
          for (std::size_t r = 0; r < n; ++r)
            c += out.vectors.at(r, j) * x[r];
          for (std::size_t r = 0; r < n; ++r)
            x[r] -= c * out.vectors.at(r, j);
        }
      const double nrm = norm2(x);
      if (!(nrm > 0.0) || !std::isfinite(nrm)) {
        for (std::size_t r = 0; r < n; ++r) x[r] = rng.next_normal();
        continue;
      }
      for (std::size_t r = 0; r < n; ++r) x[r] /= nrm;
      band_matvec(a, x, y);
      double sq = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        const double dres = y[r] - out.values[k] * x[r];
        sq += dres * dres;
      }
      accepted = std::sqrt(sq) <= accept_tol;
    }
    if (!accepted) return out;  // ok stays false: caller falls back to dense
    for (std::size_t r = 0; r < n; ++r) out.vectors.at(r, k) = x[r];
  }
  out.ok = true;
  return out;
}

}  // namespace specpart::linalg
