#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "linalg/tridiagonal.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/timer.h"

namespace specpart::linalg {

namespace {

/// dot(a, b) with the configured threading. Serial keeps the plain
/// left-to-right sum (byte-identical to the original implementation);
/// parallel uses the fixed-block deterministic reduction, so every thread
/// count >= 2 produces the same bits.
double pdot(const Vec& a, const Vec& b, const ParallelConfig& par) {
  if (par.serial()) return dot(a, b);
  return parallel_reduce<double>(
      par, 0, a.size(), 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t r = lo; r < hi; ++r) s += a[r] * b[r];
        return s;
      },
      [](double acc, double s) { return acc + s; });
}

/// y += alpha * x by disjoint row blocks (exact for any blocking).
void paxpy(double alpha, const Vec& x, Vec& y, const ParallelConfig& par) {
  if (par.serial()) {
    axpy(alpha, x, y);
    return;
  }
  parallel_for(par, 0, x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) y[r] += alpha * x[r];
  });
}

/// Makes `w` orthogonal to every vector in `basis` (two Gram-Schmidt
/// sweeps: one is not enough once the basis grows).
///
/// Serial: modified Gram-Schmidt, one dot+axpy per basis vector — the
/// original (reference) implementation. Parallel: classical Gram-Schmidt
/// with two sweeps (CGS2), each sweep a blocked multi-vector panel — one
/// pass computing every coefficient c_i = w . v_i per row block, one pass
/// applying w -= sum_i c_i v_i. The panels stream the whole basis through
/// each row block, which is memory-bandwidth-bound instead of
/// latency-bound, and the fixed-block reduction keeps the coefficients
/// bit-identical for any thread count >= 2.
void reorthogonalize(const std::vector<Vec>& basis, Vec& w,
                     const ParallelConfig& par) {
  if (par.serial() || basis.empty()) {
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (const Vec& v : basis) {
        const double c = dot(w, v);
        if (c != 0.0) axpy(-c, v, w);
      }
    }
    return;
  }
  const std::size_t m = basis.size();
  const std::size_t n = w.size();
  for (int sweep = 0; sweep < 2; ++sweep) {
    // Panel dot: c = V^T w, partials per row block combined in block order.
    const Vec c = parallel_reduce<Vec>(
        par, 0, n, Vec(m, 0.0),
        [&](std::size_t lo, std::size_t hi) {
          Vec partial(m, 0.0);
          for (std::size_t i = 0; i < m; ++i) {
            const double* v = basis[i].data();
            double s = 0.0;
            for (std::size_t r = lo; r < hi; ++r) s += w[r] * v[r];
            partial[i] = s;
          }
          return partial;
        },
        [m](Vec acc, Vec partial) {
          for (std::size_t i = 0; i < m; ++i) acc[i] += partial[i];
          return acc;
        });
    // Panel axpy: w -= V c over disjoint row blocks (exact per element).
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = 0; i < m; ++i) {
        const double ci = c[i];
        if (ci == 0.0) continue;
        const double* v = basis[i].data();
        for (std::size_t r = lo; r < hi; ++r) w[r] -= ci * v[r];
      }
    });
  }
}

Vec random_unit_vector(std::size_t n, Rng& rng) {
  Vec v(n);
  for (double& x : v) x = rng.next_normal();
  normalize(v);
  return v;
}

}  // namespace

LanczosResult lanczos_largest_op(
    std::size_t n, const std::function<void(const Vec&, Vec&)>& apply,
    double op_norm_estimate, LanczosOptions opts) {
  LanczosResult result;
  const std::size_t want = std::min(opts.num_eigenpairs, n);
  if (want == 0 || n == 0) return result;

  std::size_t max_iter = opts.max_iterations != 0
                             ? opts.max_iterations
                             : std::min(n, std::max<std::size_t>(
                                               20 * want + 120, 200));
  max_iter = std::min(max_iter, n);
  max_iter = std::max(max_iter, want);

  const double op_scale = std::max(op_norm_estimate, 1e-30);
  const double breakdown_tol = 1e-13 * op_scale;
  const ParallelConfig& par = opts.parallel;

  Rng rng(opts.seed);
  std::vector<Vec> basis;  // Lanczos vectors v_0 .. v_{m-1}
  basis.reserve(max_iter);
  Vec alphas;  // T diagonal
  Vec betas;   // betas[j] couples v_j and v_{j+1}
  Vec v = random_unit_vector(n, rng);
  Vec w(n);

  // Test hook: an armed "lanczos.force_nonconverge" fault makes this whole
  // call report non-convergence (as a clustered spectrum would), driving
  // callers into their fallback chains. One armed count = one failed call.
  const bool forced_nonconverge = SP_FAULT("lanczos.force_nonconverge");

  // T of the current basis, in Tridiagonal's layout.
  const auto projected = [&]() {
    const std::size_t m = basis.size();
    Tridiagonal t{alphas, Vec(m, 0.0)};
    for (std::size_t i = 1; i < m; ++i) t.off[i] = betas[i - 1];
    return t;
  };
  // The residual test: the wanted Ritz pairs are converged when
  // |beta_m z(m-1, col)| meets the tolerance; last_row[col] = z(m-1, col).
  const auto ritz_converged = [&](const Vec& last_row) -> bool {
    const std::size_t m = basis.size();
    if (m < want || forced_nonconverge) return false;
    if (m == n) return true;  // exhausted the space: exact
    const double beta_next = betas.size() >= m ? betas[m - 1] : 0.0;
    for (std::size_t i = 0; i < want; ++i) {
      const std::size_t col = m - 1 - i;  // largest eigenvalues are last
      const double residual = std::fabs(beta_next * last_row[col]);
      if (residual > opts.tolerance * op_scale) return false;
    }
    return true;
  };
  // A check needs only the last row of T's eigenvector matrix; the Ritz
  // vectors come from one full decomposition after the loop.
  auto check_converged = [&]() -> bool {
    Timer timer;
    bool ok = false;
    if (basis.size() >= want && !forced_nonconverge) {
      Tridiagonal t = projected();
      ok = ritz_converged(tridiagonal_eigen_last_row(t));
    }
    result.ritz_check_seconds += timer.seconds();
    return ok;
  };

  // Selective-reorthogonalization state (Simon's omega recurrence):
  // omega_cur[i] estimates |v_j . v_i|, omega_prev[i] the same for j-1.
  const bool selective =
      opts.reorthogonalization == Reorthogonalization::kSelective;
  const double eps_unit = 2.2e-16;
  const double omega_threshold = std::sqrt(eps_unit);
  std::vector<double> omega_prev, omega_cur, omega_next;
  bool force_reorth = false;  // sweep two consecutive iterations

  // FLOP counter (leading-order, integer bookkeeping only): 8n per
  // iteration for the three BLAS-1 ops plus the beta norm, 16 n m per
  // full-reorthogonalization sweep pair (CGS2/MGS2 over an m-vector basis).
  std::uint64_t flops = 0;
  const auto count_reorth = [&flops, n](std::size_t basis_size) {
    flops += 16ull * n * basis_size;
  };

  // Phase timers: operator applies and reorthogonalization sweeps.
  const auto timed = [](double& seconds, auto&& fn) {
    Timer timer;
    fn();
    seconds += timer.seconds();
  };
  const auto reorthogonalize_timed = [&](Vec& x) {
    timed(result.reorth_seconds, [&] { reorthogonalize(basis, x, par); });
  };

  bool converged = false;
  for (std::size_t j = 0; j < max_iter; ++j) {
    basis.push_back(v);
    timed(result.apply_seconds, [&] { apply(basis.back(), w); });
    flops += 8ull * n;
    if (j > 0 && betas[j - 1] != 0.0)
      paxpy(-betas[j - 1], basis[j - 1], w, par);
    const double alpha = pdot(w, basis[j], par);
    paxpy(-alpha, basis[j], w, par);
    if (!selective) {
      reorthogonalize_timed(w);
      count_reorth(basis.size());
    }
    alphas.push_back(alpha);

    double beta = std::sqrt(pdot(w, w, par));
    if (selective && beta > breakdown_tol) {
      if (j == 0) omega_cur.assign(1, 1.0);
      // Advance the omega recurrence: omega_next[i] ~ |v_{j+1} . v_i|.
      // B(t) couples v_{t-1} and v_t; with our storage B(t) = betas[t-1].
      omega_next.assign(j + 2, 0.0);
      const double noise = eps_unit * (op_scale / beta) * 2.0;
      for (std::size_t i = 0; i < j; ++i) {
        double num = betas[i] * omega_cur[i + 1] +
                     (alphas[i] - alphas[j]) * omega_cur[i];
        if (i > 0) num += betas[i - 1] * omega_cur[i - 1];
        if (j > 0 && i < omega_prev.size()) num -= betas[j - 1] * omega_prev[i];
        omega_next[i] = num / beta + noise;
      }
      if (j >= 1)
        omega_next[j] =
            eps_unit * std::sqrt(static_cast<double>(n)) * (op_scale / beta);
      omega_next[j + 1] = 1.0;

      double worst = 0.0;
      for (std::size_t i = 0; i <= j; ++i)
        worst = std::max(worst, std::fabs(omega_next[i]));
      const bool trigger = worst > omega_threshold;
      if (trigger || force_reorth) {
        reorthogonalize_timed(w);
        count_reorth(basis.size());
        beta = std::sqrt(pdot(w, w, par));
        for (std::size_t i = 0; i <= j; ++i) omega_next[i] = eps_unit;
        force_reorth = trigger;  // sweep once more after a fresh trigger
      }
      omega_prev = std::move(omega_cur);
      omega_cur = std::move(omega_next);
      omega_next.clear();
    }
    if (SP_FAULT("lanczos.force_breakdown")) beta = 0.0;
    if (beta <= breakdown_tol) {
      // Invariant subspace found. Restart with a fresh random direction
      // orthogonal to the current basis (T gets a zero coupling, which the
      // QL solver handles as a block split).
      betas.push_back(0.0);
      if (basis.size() >= n) {
        converged = check_converged();
        break;
      }
      Vec fresh = random_unit_vector(n, rng);
      reorthogonalize_timed(fresh);
      count_reorth(basis.size());
      if (normalize(fresh) <= 1e-12) {
        converged = check_converged();
        break;
      }
      ++result.breakdown_restarts;
      v = std::move(fresh);
      if (selective) {
        // The restart direction is explicitly orthogonalized.
        omega_prev = omega_cur;
        omega_cur.assign(j + 2, eps_unit);
        omega_cur.back() = 1.0;
      }
    } else {
      betas.push_back(beta);
      scale(w, 1.0 / beta);
      v = w;
    }

    const std::size_t m = basis.size();
    const bool time_to_check =
        m >= want + 2 && (m % 10 == 0 || m == max_iter || m == n);
    if (time_to_check && check_converged()) {
      converged = true;
      break;
    }
    // The first iteration always completes, so even an already-expired
    // budget yields a usable (if poor) one-pair result.
    if (!budget_charge(opts.budget)) {
      result.budget_exhausted = true;
      break;
    }
  }

  // Every exit path (converged check, breakdown, budget, iteration cap)
  // takes its Ritz pairs from one full decomposition of the final T.
  const std::size_t m = basis.size();
  SP_ASSERT(m >= 1);
  Timer ritz_timer;
  Tridiagonal t_conv = projected();
  DenseMatrix z_conv = DenseMatrix::identity(m);
  tridiagonal_eigen(t_conv, z_conv);
  result.ritz_check_seconds += ritz_timer.seconds();
  if (!converged) converged = ritz_converged(z_conv.row(m - 1));
  const std::size_t take = std::min(want, m);

  result.values.resize(take);
  result.vectors = DenseMatrix(n, take);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t col = m - 1 - i;  // descending eigenvalues of B
    result.values[i] = t_conv.diag[col];
    Vec x(n, 0.0);
    // x = sum_k z(k, col) basis_k; the per-element accumulation order over
    // k is fixed, so row-blocking is exact for any thread count.
    parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = 0; k < m; ++k) {
        const double z = z_conv.at(k, col);
        const double* b = basis[k].data();
        for (std::size_t r = lo; r < hi; ++r) x[r] += z * b[r];
      }
    });
    normalize(x);
    result.vectors.set_col(i, x);
  }
  // Per-pair convergence: the longest leading prefix whose residuals meet
  // the tolerance. Callers truncate to this prefix when the tail fails.
  const double beta_tail = (m < n && betas.size() >= m) ? betas[m - 1] : 0.0;
  result.num_converged = 0;
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t col = m - 1 - i;
    const double residual = std::fabs(beta_tail * z_conv.at(m - 1, col));
    if (residual > opts.tolerance * op_scale) break;
    ++result.num_converged;
  }
  if (forced_nonconverge && want > 0)
    result.num_converged = std::min(result.num_converged, want - 1);

  result.iterations = m;
  result.converged = converged && take == want;
  result.operator_applies = m;  // one apply per iteration
  result.flops = flops + 2ull * n * m * take;  // + Ritz vector assembly
  return result;
}

LanczosResult lanczos_smallest(const SymCsrMatrix& a, LanczosOptions opts) {
  const std::size_t n = a.size();
  // Shift so the smallest eigenvalues of A become the largest of
  // B = sigma*I - A; sigma >= lambda_max(A) keeps B positive semidefinite.
  const double sigma = a.gershgorin_upper() * (1.0 + 1e-12) + 1e-12;
  auto apply = [&](const Vec& x, Vec& y) {
    a.matvec(x, y, opts.parallel);
    parallel_for(opts.parallel, 0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) y[i] = sigma * x[i] - y[i];
    });
  };
  LanczosResult r = lanczos_largest_op(n, apply, sigma, opts);
  // Convert eigenvalues of B back to eigenvalues of A. B's values are
  // descending, so A's come out ascending — exactly what callers expect.
  for (double& v : r.values) v = sigma - v;
  // The generic driver counted the basis work; add what each operator
  // application costs against this concrete matrix: one CSR sweep (2 nnz
  // flops + the n-element shift) per apply.
  r.flops +=
      static_cast<std::uint64_t>(r.operator_applies) * (2ull * a.nnz() + 2 * n);
  r.matrix_bytes_moved =
      static_cast<std::uint64_t>(r.operator_applies) * a.stream_bytes();
  return r;
}

}  // namespace specpart::linalg
