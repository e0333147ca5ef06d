#include "linalg/panel_ops.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace specpart::linalg {

DenseMatrix panel_dots(const Panel& p, const Panel& w,
                       const ParallelConfig& par) {
  const std::size_t pc = p.cols(), wc = w.cols();
  const Vec flat = panel_column_sums(
      p.rows(), pc * wc, par, [&](std::size_t r, double* partial) {
        const double* pr = p.row(r);
        const double* wr = w.row(r);
        for (std::size_t a = 0; a < pc; ++a) {
          const double pa = pr[a];
          if (pa == 0.0) continue;
          double* out = partial + a * wc;
          for (std::size_t c = 0; c < wc; ++c) out[c] += pa * wr[c];
        }
      });
  DenseMatrix c(pc, wc);
  std::copy(flat.begin(), flat.end(), c.data());
  return c;
}

std::size_t panel_qr_cgs2(Panel& x, double breakdown_tol,
                          const ParallelConfig& par, Rng& rng,
                          std::uint64_t& flops) {
  const std::size_t n = x.rows(), width = x.cols();
  // Column k of x is cols[k * n, (k + 1) * n). Dots reduce over the same
  // fixed row blocks as on the row-major panel, so the bits are unchanged.
  Vec cols(n * width);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = 0; k < width; ++k) cols[k * n + r] = x.at(r, k);
  const auto col = [&cols, n](std::size_t k) { return cols.data() + k * n; };
  const auto dot = [&](const double* p, const double* q) {
    return parallel_reduce<double>(
        par, 0, n, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t r = lo; r < hi; ++r) s += p[r] * q[r];
          return s;
        },
        [](double acc, double s) { return acc + s; });
  };
  const auto scale = [&](double* p, double alpha) {
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) p[r] *= alpha;
    });
  };

  std::size_t restarts = 0;
  for (std::size_t k = 0; k < width; ++k) {
    double* xk = col(k);
    for (int attempt = 0; attempt < 2; ++attempt) {
      for (int sweep = 0; sweep < 2; ++sweep)
        for (std::size_t j = 0; j < k; ++j) {
          const double* xj = col(j);
          const double c = dot(xj, xk);
          if (c == 0.0) continue;
          parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
            simd::run([&] {
              for (std::size_t r = lo; r < hi; ++r) xk[r] += -c * xj[r];
            });
          });
        }
      flops += 8ull * n * k;
      const double nrm = std::sqrt(dot(xk, xk));
      if (nrm > breakdown_tol) {
        scale(xk, 1.0 / nrm);
        break;
      }
      // Dead column: refill with a fresh random direction and retry once.
      // If the retry also dies, the space is exhausted — leave the zero
      // column (its Rayleigh-Ritz weight will be ~0).
      if (attempt == 1) {
        scale(xk, 0.0);
        break;
      }
      for (std::size_t r = 0; r < n; ++r) xk[r] = rng.next_normal();
      ++restarts;
    }
  }
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = 0; k < width; ++k) x.at(r, k) = cols[k * n + r];
  return restarts;
}

void panel_rotate(const Panel& a, const DenseMatrix& u, Panel& out,
                  const ParallelConfig& par) {
  const std::size_t k = a.cols(), k2 = u.cols();
  SP_ASSERT(u.rows() == k && out.rows() == a.rows() && out.cols() == k2);
  const double* ud = u.data();
  parallel_for(par, 0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    simd::run([&] {
      for (std::size_t r = lo; r < hi; ++r) {
        const double* ar = a.row(r);
        double* orow = out.row(r);
        std::fill_n(orow, k2, 0.0);
        for (std::size_t j = 0; j < k; ++j) {
          const double aj = ar[j];
          const double* uj = ud + j * k2;
          for (std::size_t c = 0; c < k2; ++c) orow[c] += aj * uj[c];
        }
      }
    });
  });
}

}  // namespace specpart::linalg
