#include "linalg/panel_ops.h"

#include <cmath>

#include "util/error.h"

namespace specpart::linalg {

double panel_col_dot(const Panel& p, std::size_t ca, const Panel& q,
                     std::size_t cb, const ParallelConfig& par) {
  const std::size_t pw = p.cols(), qw = q.cols();
  const double* pd = p.data();
  const double* qd = q.data();
  return parallel_reduce<double>(
      par, 0, p.rows(), 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t r = lo; r < hi; ++r)
          s += pd[r * pw + ca] * qd[r * qw + cb];
        return s;
      },
      [](double acc, double s) { return acc + s; });
}

void panel_col_axpy(double alpha, const Panel& p, std::size_t ca, Panel& q,
                    std::size_t cb, const ParallelConfig& par) {
  const std::size_t pw = p.cols(), qw = q.cols();
  const double* pd = p.data();
  double* qd = q.data();
  parallel_for(par, 0, p.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r)
      qd[r * qw + cb] += alpha * pd[r * pw + ca];
  });
}

void panel_col_scale(Panel& p, std::size_t c, double alpha,
                     const ParallelConfig& par) {
  const std::size_t pw = p.cols();
  double* pd = p.data();
  parallel_for(par, 0, p.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) pd[r * pw + c] *= alpha;
  });
}

DenseMatrix panel_dots(const Panel& p, const Panel& w,
                       const ParallelConfig& par) {
  const std::size_t pc = p.cols(), wc = w.cols();
  const Vec flat = parallel_reduce<Vec>(
      par, 0, p.rows(), Vec(pc * wc, 0.0),
      [&](std::size_t lo, std::size_t hi) {
        Vec partial(pc * wc, 0.0);
        for (std::size_t r = lo; r < hi; ++r) {
          const double* pr = p.row(r);
          const double* wr = w.row(r);
          for (std::size_t a = 0; a < pc; ++a) {
            const double pa = pr[a];
            if (pa == 0.0) continue;
            double* out = partial.data() + a * wc;
            for (std::size_t c = 0; c < wc; ++c) out[c] += pa * wr[c];
          }
        }
        return partial;
      },
      [pc, wc](Vec acc, Vec partial) {
        for (std::size_t i = 0; i < pc * wc; ++i) acc[i] += partial[i];
        return acc;
      });
  DenseMatrix c(pc, wc);
  for (std::size_t a = 0; a < pc; ++a)
    for (std::size_t b = 0; b < wc; ++b) c.at(a, b) = flat[a * wc + b];
  return c;
}

std::size_t panel_qr_cgs2(Panel& x, double breakdown_tol,
                          const ParallelConfig& par, Rng& rng,
                          std::uint64_t& flops) {
  const std::size_t n = x.rows(), width = x.cols();
  std::size_t restarts = 0;
  for (std::size_t k = 0; k < width; ++k) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      for (int sweep = 0; sweep < 2; ++sweep)
        for (std::size_t j = 0; j < k; ++j) {
          const double c = panel_col_dot(x, j, x, k, par);
          if (c != 0.0) panel_col_axpy(-c, x, j, x, k, par);
        }
      flops += 8ull * n * k;
      const double nrm = std::sqrt(panel_col_dot(x, k, x, k, par));
      if (nrm > breakdown_tol) {
        panel_col_scale(x, k, 1.0 / nrm, par);
        break;
      }
      // Dead column: refill with a fresh random direction and retry once.
      // If the retry also dies, the space is exhausted — leave the zero
      // column (its Rayleigh-Ritz weight will be ~0).
      if (attempt == 1) {
        panel_col_scale(x, k, 0.0, par);
        break;
      }
      for (std::size_t r = 0; r < n; ++r) x.at(r, k) = rng.next_normal();
      ++restarts;
    }
  }
  return restarts;
}

void panel_rotate(const Panel& a, const DenseMatrix& u, Panel& out,
                  const ParallelConfig& par) {
  const std::size_t k = a.cols(), k2 = u.cols();
  SP_ASSERT(u.rows() == k && out.rows() == a.rows() && out.cols() == k2);
  parallel_for(par, 0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const double* ar = a.row(r);
      double* orow = out.row(r);
      for (std::size_t c = 0; c < k2; ++c) {
        double s = 0.0;
        for (std::size_t j = 0; j < k; ++j) s += ar[j] * u.at(j, c);
        orow[c] = s;
      }
    }
  });
}

}  // namespace specpart::linalg
