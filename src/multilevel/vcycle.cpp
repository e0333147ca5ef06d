#include "multilevel/vcycle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/dense.h"
#include "linalg/eigensolver.h"
#include "linalg/lanczos.h"
#include "linalg/panel_ops.h"
#include "linalg/symmetric_eigen.h"
#include "multilevel/coarsen.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/timer.h"

namespace specpart::multilevel {

namespace {

using linalg::DenseMatrix;
using linalg::Panel;
using linalg::SymCsrMatrix;
using linalg::Vec;

/// Cost counters accumulated across every level, comparable with the flat
/// solvers' (flops, CSR bytes streamed, single-column operator applies).
struct Counters {
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  std::size_t applies = 0;

  void charge_spmm(const SymCsrMatrix& m, std::size_t cols) {
    flops += 2ull * m.nnz() * cols;
    bytes += m.stream_bytes();
    applies += cols;
  }
};

/// Rayleigh-Ritz rotation of `x` in place: projects L onto span(x),
/// diagonalizes the (small, dense) projection and rotates x to the Ritz
/// vectors, ascending. Fills `theta` (all x.cols() Ritz values) and
/// `residuals` (||L x_j - theta_j x_j|| for the first `want` columns);
/// returns the max of those residuals. Deterministic for any thread count:
/// the panel kernels use fixed row blocks and the dense solve is serial.
double rayleigh_ritz(const SymCsrMatrix& l, Panel& x, std::size_t want,
                     const ParallelConfig& par, Vec& theta, Vec& residuals,
                     Counters& c) {
  const std::size_t n = x.rows(), w = x.cols();
  Panel z(n, w);
  l.spmm(x, z, par);
  c.charge_spmm(l, w);
  DenseMatrix s = linalg::panel_dots(x, z, par);
  c.flops += 2ull * n * w * w;
  // x^T L x is symmetric up to roundoff; the dense solver wants it exact.
  for (std::size_t a = 0; a < w; ++a)
    for (std::size_t b = 0; b < a; ++b) {
      const double m = 0.5 * (s.at(a, b) + s.at(b, a));
      s.at(a, b) = m;
      s.at(b, a) = m;
    }
  const linalg::EigenDecomposition dec =
      linalg::solve_symmetric_eigen(std::move(s));  // ascending
  Panel xr(n, w), zr(n, w);
  linalg::panel_rotate(x, dec.vectors, xr, par);
  linalg::panel_rotate(z, dec.vectors, zr, par);
  c.flops += 4ull * n * w * w;
  x = std::move(xr);
  theta = dec.values;

  const std::size_t nres = std::min(want, w);
  const Vec sq = linalg::panel_column_sums(
      n, nres, par, [&](std::size_t r, double* partial) {
        const double* zrow = zr.row(r);
        const double* xrow = x.row(r);
        for (std::size_t j = 0; j < nres; ++j) {
          const double d = zrow[j] - theta[j] * xrow[j];
          partial[j] += d * d;
        }
      });
  residuals.assign(nres, 0.0);
  double worst = 0.0;
  for (std::size_t j = 0; j < nres; ++j) {
    residuals[j] = std::sqrt(sq[j]);
    worst = std::max(worst, residuals[j]);
  }
  c.flops += 3ull * n * nres;
  return worst;
}

/// Degree-`degree` Chebyshev filter on [lo, hi] applied to every column of
/// `x`: the three-term recurrence in the variable (L - c I) / e grows like
/// cosh(degree * acosh(..)) below `lo` and stays bounded on [lo, hi], so
/// the wanted low eigencomponents are amplified relative to everything
/// else. Each degree is one fused pass: the SpMM of the current iterate
/// y1 stores the next iterate over the previous one, y0, row by row (y0 is
/// never the SpMM operand), and the two swap. Columns are renormalized
/// every 8 degrees against overflow (the growth factor per degree can
/// exceed 1e2 when lo << hi). The recurrence stores run inside spmm_rows'
/// row blocks and the rescale under simd::run, so both get the AVX2 clone.
void chebyshev_filter(const SymCsrMatrix& l, Panel& x, double lo, double hi,
                      std::size_t degree, const ParallelConfig& par,
                      Counters& c) {
  const std::size_t n = x.rows(), w = x.cols();
  const double e = std::max((hi - lo) / 2.0, 1e-300);
  const double ctr = (hi + lo) / 2.0;
  Panel y1 = std::move(x);
  Panel y0(n, w);
  l.spmm_rows(y1, par,
              [&](std::size_t r, std::size_t c0, const double* acc,
                  std::size_t count) {
                const double* cur = y1.row(r) + c0;
                double* next = y0.row(r) + c0;
                for (std::size_t cc = 0; cc < count; ++cc)
                  next[cc] = (acc[cc] - ctr * cur[cc]) / e;
              });
  std::swap(y0, y1);
  c.charge_spmm(l, w);
  c.flops += 3ull * n * w;
  for (std::size_t k = 1; k < degree; ++k) {
    l.spmm_rows(y1, par,
                [&](std::size_t r, std::size_t c0, const double* acc,
                    std::size_t count) {
                  const double* cur = y1.row(r) + c0;
                  double* prev = y0.row(r) + c0;
                  for (std::size_t cc = 0; cc < count; ++cc)
                    prev[cc] = 2.0 * (acc[cc] - ctr * cur[cc]) / e - prev[cc];
                });
    std::swap(y0, y1);
    c.charge_spmm(l, w);
    c.flops += 6ull * n * w;
    if ((k & 7) == 7) {
      const Vec sq = linalg::panel_column_sums(
          n, w, par, [&](std::size_t r, double* partial) {
            const double* row = y1.row(r);
            for (std::size_t cc = 0; cc < w; ++cc)
              partial[cc] += row[cc] * row[cc];
          });
      // A column without a positive norm keeps factor 1.0 (x * 1.0 == x
      // exactly), as if left unscaled.
      Vec inv(w, 1.0);
      for (std::size_t cc = 0; cc < w; ++cc) {
        const double nrm = std::sqrt(sq[cc]);
        if (nrm > 0.0) inv[cc] = 1.0 / nrm;
      }
      parallel_for(par, 0, n, [&](std::size_t lo_r, std::size_t hi_r) {
        simd::run([&] {
          for (std::size_t r = lo_r; r < hi_r; ++r) {
            double* r1 = y1.row(r);
            double* r0 = y0.row(r);
            for (std::size_t cc = 0; cc < w; ++cc) {
              r1[cc] *= inv[cc];
              r0[cc] *= inv[cc];
            }
          }
        });
      });
      c.flops += 6ull * n * w;
    }
  }
  x = std::move(y1);
}

}  // namespace

linalg::LanczosResult multilevel_solve_smallest(
    const SymCsrMatrix& a, std::size_t want, std::uint64_t seed,
    const ParallelConfig& parallel, ComputeBudget* budget,
    MultilevelStats* stats, bool galerkin_general) {
  linalg::LanczosResult result;
  const std::size_t n = a.size();
  want = std::min(want, n);
  if (want == 0 || n == 0) {
    if (stats != nullptr) *stats = MultilevelStats{};
    return result;
  }

  MultilevelStats local_stats;
  MultilevelStats& st = stats != nullptr ? *stats : local_stats;
  st = MultilevelStats{};
  Counters c;
  Rng rng(seed);
  const ParallelConfig& par = parallel;

  // Panel width: ~2x the wanted count. The surplus columns act as a guard
  // band — the filter and the Rayleigh-Ritz window only certify pairs
  // strictly inside the panel's Ritz spectrum.
  const std::size_t width =
      std::min(n, want + std::max<std::size_t>(want, 6));

  // Hierarchy. The coarsest level must comfortably hold the panel, so the
  // configured floor is clamped to 2x the width (pair matching can
  // overshoot a level below the floor by at most a factor of two).
  Timer t_coarsen;
  CoarsenOptions copts;
  copts.coarsest_size = std::max<std::size_t>(kCoarsestSize, 2 * width);
  copts.parallel = par;
  copts.galerkin_general = galerkin_general;
  const std::vector<CoarseLevel> levels = build_hierarchy(a, copts);
  const SymCsrMatrix& coarsest = levels.empty() ? a : levels.back().lap;
  st.levels = levels.size();
  st.coarsest_n = coarsest.size();
  st.coarsening_ratio =
      static_cast<double>(n) / static_cast<double>(coarsest.size());
  st.coarsen_seconds = t_coarsen.seconds();

  // Coarsest solve: exact dense decomposition in the window the hierarchy
  // targets; a scalar Lanczos backstop when matching stalled far above it
  // (rare — star-free graphs with uniform weights).
  Timer t_solve;
  const std::size_t nc = coarsest.size();
  const std::size_t wc = std::min(width, nc);
  bool exhausted = false;
  Panel x(nc, wc);
  if (nc <= std::max<std::size_t>(600, copts.coarsest_size * 3 / 2)) {
    const linalg::EigenDecomposition dec =
        linalg::solve_symmetric_eigen_smallest(coarsest.to_dense(), wc);
    for (std::size_t r = 0; r < nc; ++r)
      for (std::size_t j = 0; j < wc; ++j) x.at(r, j) = dec.vectors.at(r, j);
  } else {
    linalg::LanczosOptions lopts;
    lopts.num_eigenpairs = wc;
    lopts.seed = seed;
    lopts.parallel = par;
    lopts.budget = budget;
    const linalg::LanczosResult coarse =
        linalg::lanczos_smallest(coarsest, lopts);
    c.flops += coarse.flops;
    c.bytes += coarse.matrix_bytes_moved;
    c.applies += coarse.operator_applies;
    exhausted = coarse.budget_exhausted;
    const std::size_t have = std::min(wc, coarse.values.size());
    for (std::size_t j = 0; j < have; ++j)
      for (std::size_t r = 0; r < nc; ++r)
        x.at(r, j) = coarse.vectors.at(r, j);
    for (std::size_t j = have; j < wc; ++j) {  // top up with random columns
      for (std::size_t r = 0; r < nc; ++r) x.at(r, j) = rng.next_normal();
    }
    panel_qr_cgs2(x, 1e-13, par, rng, c.flops);
  }
  st.coarse_solve_seconds = t_solve.seconds();

  Vec theta;
  Vec residuals;

  /// Refinement at one level: Rayleigh-Ritz sweeps with Chebyshev
  /// filtering in between, until the aspiration residual, a sweep cap, a
  /// stall, or budget exhaustion. The first sweep always runs (it is what
  /// makes theta / residuals consistent with x), matching the flat
  /// solvers' at-least-one-iteration contract.
  auto refine = [&](const SymCsrMatrix& m, Panel& xl, bool finest) {
    Timer t_level;
    const double hi = m.gershgorin_upper();
    const double scale = std::max(hi, 1e-30);
    const double aspiration =
        (finest ? linalg::kSolverTolerance : 1e-6) * scale;
    const std::size_t max_sweeps =
        finest ? kFinestRefineSweeps : kRefineSweeps;

    double res = rayleigh_ritz(m, xl, want, par, theta, residuals, c);
    std::size_t sweeps = 1;
    double best = std::numeric_limits<double>::infinity();
    int no_gain = 0;
    while (sweeps < max_sweeps && res > aspiration && !exhausted) {
      // Lenient stall rule: a filter pass that is recovering a mode the
      // coarse basis missed *raises* the residual before it collapses, so
      // only two consecutive no-gain sweeps end the level.
      if (res > 0.9 * best) {
        if (++no_gain >= 2) break;
      } else {
        no_gain = 0;
      }
      best = std::min(best, res);
      if (!budget_charge(budget)) {
        exhausted = true;
        break;
      }
      double lo = theta[xl.cols() - 1];
      lo = std::min(std::max(lo * 1.05, 1e-8 * hi), 0.5 * hi);
      chebyshev_filter(m, xl, lo, hi, kRefineDegree, par, c);
      panel_qr_cgs2(xl, 1e-13, par, rng, c.flops);
      res = rayleigh_ritz(m, xl, want, par, theta, residuals, c);
      ++sweeps;
    }

    LevelStats ls;
    ls.n = m.size();
    ls.nnz = m.nnz();
    ls.sweeps = sweeps;
    ls.relative_residual = res / scale;
    ls.seconds = t_level.seconds();
    st.refine_seconds += ls.seconds;
    st.per_level.push_back(ls);
  };

  // Ascent: prolong (piecewise-constant), re-orthonormalize, refine. When
  // the budget dies mid-ascent the prolongation still runs to the finest
  // level (the result must live on the original vertex set) but each
  // remaining level gets only the mandatory consistency sweep.
  for (std::size_t li = levels.size(); li-- > 0;) {
    const SymCsrMatrix& fine = li == 0 ? a : levels[li - 1].lap;
    const CoarseLevel& lev = levels[li];
    const std::size_t nf = fine.size(), w = x.cols();
    Panel xf(nf, w);
    parallel_for(par, 0, nf, [&](std::size_t lo_r, std::size_t hi_r) {
      for (std::size_t r = lo_r; r < hi_r; ++r) {
        const double* src = x.row(lev.coarse_of[r]);
        double* dst = xf.row(r);
        for (std::size_t cc = 0; cc < w; ++cc) dst[cc] = src[cc];
      }
    });
    panel_qr_cgs2(xf, 1e-13, par, rng, c.flops);
    c.flops += 4ull * nf * w * w;
    x = std::move(xf);
    refine(fine, x, li == 0);
  }
  if (levels.empty()) refine(a, x, /*finest=*/true);

  // Extraction. theta / residuals reflect the last (finest) Rayleigh-Ritz
  // rotation, so the columns of x already are the unit Ritz vectors.
  const double fin_scale = std::max(a.gershgorin_upper(), 1e-30);
  const double accept = kRefineTolerance * fin_scale;
  const std::size_t take = std::min(want, x.cols());
  result.values.assign(theta.begin(),
                       theta.begin() + static_cast<std::ptrdiff_t>(take));
  result.vectors = DenseMatrix(n, take);
  for (std::size_t j = 0; j < take; ++j)
    for (std::size_t r = 0; r < n; ++r)
      result.vectors.at(r, j) = x.at(r, j);
  result.num_converged = 0;
  for (std::size_t j = 0; j < std::min(take, residuals.size()); ++j) {
    if (residuals[j] > accept) break;
    ++result.num_converged;
  }
  // Test hook: an armed "multilevel.force_nonconverge" fault fails this
  // V-cycle (as an uncertifiable spectrum would), driving the embedding
  // layer into its flat fallback. One armed count = one failed V-cycle.
  if (SP_FAULT("multilevel.force_nonconverge"))
    result.num_converged = std::min(result.num_converged, want - 1);
  result.converged =
      !exhausted && take == want && result.num_converged == want;
  result.budget_exhausted = exhausted;
  result.iterations = st.total_sweeps();
  result.operator_applies = c.applies;
  result.flops = c.flops;
  result.matrix_bytes_moved = c.bytes;
  return result;
}

}  // namespace specpart::multilevel
