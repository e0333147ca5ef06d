#include "spectral/embedding.h"

#include <algorithm>
#include <cmath>

#include "graph/laplacian.h"
#include "linalg/lanczos.h"
#include "linalg/symmetric_eigen.h"
#include "multilevel/vcycle.h"
#include "util/error.h"
#include "util/stringutil.h"

namespace specpart::spectral {

namespace {

constexpr const char* kStage = "eigensolve";

void note_fallback(Diagnostics* diag, const std::string& message) {
  if (diag != nullptr) diag->fallback(kStage, message);
}

/// Seconds as whole microseconds, the unit of the phase counters.
std::uint64_t micros(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

/// Runs one flat Lanczos attempt and records its internal recoveries and
/// phase times (the counters add up over the escalation chain's attempts).
/// `max_iterations` caps the Krylov columns (0 = Lanczos' automatic
/// formula); the fallback chain reseeds and enlarges it per attempt.
linalg::LanczosResult run_attempt(const linalg::SymCsrMatrix& q,
                                  const EmbeddingOptions& opts,
                                  std::size_t want, std::uint64_t seed,
                                  std::size_t max_iterations,
                                  ComputeBudget* budget, Diagnostics* diag) {
  linalg::LanczosOptions lopts;
  lopts.num_eigenpairs = want;
  lopts.max_iterations = max_iterations;
  lopts.tolerance = linalg::kSolverTolerance;
  lopts.seed = seed;
  lopts.budget = budget;
  lopts.parallel = opts.parallel;
  linalg::LanczosResult result = linalg::lanczos_smallest(q, lopts);
  if (diag != nullptr) {
    diag->add_counter(kStage, "lanczos_apply_us", micros(result.apply_seconds));
    diag->add_counter(kStage, "lanczos_reorth_us",
                      micros(result.reorth_seconds));
    diag->add_counter(kStage, "lanczos_ritz_check_us",
                      micros(result.ritz_check_seconds));
  }
  if (result.breakdown_restarts > 0)
    note_fallback(diag,
                  strprintf("Lanczos breakdown: %zu invariant-subspace "
                            "restart(s) with fresh random directions",
                            result.breakdown_restarts));
  return result;
}

/// The solver core, shared by both public overloads (which differ only in
/// how the Laplacian is obtained and both wrap this in the "eigensolve"
/// stage timer).
EigenBasis eigenbasis_of_laplacian(const linalg::SymCsrMatrix& q,
                                   const EmbeddingOptions& opts,
                                   Diagnostics* diag, ComputeBudget* budget) {
  const std::size_t n = q.size();
  const std::size_t extra = opts.skip_trivial ? 1 : 0;
  const std::size_t want = std::min(n, opts.count + extra);

  EigenBasis basis;
  basis.n = n;
  basis.laplacian_trace = q.trace();
  basis.requested = want >= extra ? want - extra : 0;

  linalg::Vec values;
  linalg::DenseMatrix vectors;
  bool converged = false;
  std::size_t num_converged = 0;
  if (n <= opts.solver.dense_threshold) {
    linalg::EigenDecomposition dec =
        linalg::solve_symmetric_eigen_smallest(q.to_dense(), want);
    values = std::move(dec.values);
    vectors = std::move(dec.vectors);
    converged = true;
    num_converged = values.size();
  } else {
    std::uint64_t seed = opts.seed;
    std::size_t max_iterations = 0;  // Lanczos' automatic Krylov cap

    linalg::LanczosResult result;
    bool have_result = false;
    if (opts.solver.strategy == linalg::SolverStrategy::kMultilevel) {
      // The V-cycle replaces the first flat attempt. Its converged flag is
      // governed by kRefineTolerance (a quasi-continuum spectrum caps
      // what Chebyshev filtering can certify); when it is unmet the flat
      // chain below runs from scratch — the strategy is an accelerator,
      // never a correctness risk.
      multilevel::MultilevelStats mstats;
      const bool galerkin_general =
          opts.objective != linalg::ObjectiveModel::kUnnormalized;
      result = multilevel::multilevel_solve_smallest(
          q, want, seed, opts.parallel, budget, &mstats, galerkin_general);
      basis.solve_flops += result.flops;
      basis.solve_bytes_moved += result.matrix_bytes_moved;
      if (diag != nullptr) {
        diag->add_counter(kStage, "multilevel_levels", mstats.levels);
        diag->add_counter(kStage, "multilevel_coarsest_n", mstats.coarsest_n);
        diag->add_counter(kStage, "multilevel_refine_sweeps",
                          mstats.total_sweeps());
        diag->add_counter(kStage, "multilevel_coarsen_us",
                          micros(mstats.coarsen_seconds));
        diag->add_counter(kStage, "multilevel_coarse_solve_us",
                          micros(mstats.coarse_solve_seconds));
        diag->add_counter(kStage, "multilevel_refine_us",
                          micros(mstats.refine_seconds));
      }
      have_result = result.converged || result.budget_exhausted;
      if (!have_result)
        note_fallback(diag,
                      strprintf("multilevel refinement certified %zu of %zu "
                                "pair(s); flat solve fallback",
                                result.num_converged, want));
    }
    if (!have_result) {
      result = run_attempt(q, opts, want, seed, max_iterations, budget, diag);
      basis.solve_flops += result.flops;
      basis.solve_bytes_moved += result.matrix_bytes_moved;
    }

    // Hardened fallback chain for clustered / pathological spectra. Each
    // escalation is recorded; an exhausted budget short-circuits to the
    // best-so-far basis.
    enum class Step { kReseed, kEnlarge, kDense, kTruncate };
    Step step = Step::kReseed;
    bool dense_solved = false;
    while (!result.converged && !result.budget_exhausted &&
           budget_ok(budget)) {
      if (step == Step::kReseed) {
        note_fallback(diag, "eigensolver did not converge; reseeded restart");
        seed = seed * 0x9E3779B97F4A7C15ULL + 1;
        result = run_attempt(q, opts, want, seed, max_iterations, budget,
                             diag);
        basis.solve_flops += result.flops;
        basis.solve_bytes_moved += result.matrix_bytes_moved;
        step = Step::kEnlarge;
      } else if (step == Step::kEnlarge) {
        max_iterations =
            std::min(n, std::max<std::size_t>(result.iterations * 2, 160));
        note_fallback(diag, strprintf("enlarged Krylov space to %zu",
                                      max_iterations));
        result = run_attempt(q, opts, want, seed, max_iterations, budget,
                             diag);
        basis.solve_flops += result.flops;
        basis.solve_bytes_moved += result.matrix_bytes_moved;
        step = Step::kDense;
      } else if (step == Step::kDense) {
        if (opts.solver.dense_fallback_limit > 0 &&
            n <= opts.solver.dense_fallback_limit) {
          note_fallback(
              diag, strprintf("dense eigensolver fallback (n = %zu above "
                              "dense_threshold = %zu)",
                              n, opts.solver.dense_threshold));
          linalg::EigenDecomposition dec =
              linalg::solve_symmetric_eigen_smallest(q.to_dense(), want);
          values = std::move(dec.values);
          vectors = std::move(dec.vectors);
          converged = true;
          num_converged = values.size();
          dense_solved = true;
          break;
        }
        step = Step::kTruncate;
      } else {  // Step::kTruncate — terminal: degrade, never abort.
        break;
      }
    }

    if (!dense_solved) {
      if (result.budget_exhausted && diag != nullptr)
        diag->mark_budget_exhausted(kStage);
      basis.budget_exhausted = result.budget_exhausted;
      converged = result.converged;
      num_converged = result.num_converged;
      // Truncate to the converged prefix when trailing pairs failed but a
      // usable prefix exists (the paper's own thesis licenses running with
      // fewer eigenvectors). Keep at least one non-trivial column so
      // downstream stages always have a basis to work with.
      const std::size_t floor_cols = std::min(result.values.size(), extra + 1);
      const std::size_t keep_cols =
          std::max(std::min(num_converged, result.values.size()), floor_cols);
      if (!converged && keep_cols < result.values.size() &&
          !result.budget_exhausted) {
        note_fallback(diag,
                      strprintf("truncated eigenbasis to the converged "
                                "prefix: %zu of %zu pair(s)",
                                keep_cols, result.values.size()));
        basis.truncated = true;
        converged = keep_cols <= num_converged;
      }
      values.assign(result.values.begin(),
                    result.values.begin() +
                        static_cast<std::ptrdiff_t>(
                            basis.truncated ? keep_cols
                                            : result.values.size()));
      vectors = linalg::DenseMatrix(n, values.size());
      for (std::size_t j = 0; j < values.size(); ++j)
        vectors.set_col(j, result.vectors.col(j));
    }
  }

  const std::size_t have = values.size();
  SP_REQUIRE(have >= extra, "eigensolver returned no usable pairs");
  const std::size_t keep = have - extra;
  basis.values.assign(values.begin() + static_cast<std::ptrdiff_t>(extra),
                      values.end());
  basis.vectors = linalg::DenseMatrix(n, keep);
  for (std::size_t j = 0; j < keep; ++j)
    basis.vectors.set_col(j, vectors.col(j + extra));
  basis.converged = converged;
  basis.converged_pairs =
      std::min(keep, num_converged >= extra ? num_converged - extra : 0);
  if (converged) basis.converged_pairs = keep;
  if (diag != nullptr && keep < basis.requested)
    diag->warn(kStage, strprintf("eigenbasis degraded: %zu of %zu requested "
                                 "pair(s) available",
                                 keep, basis.requested));
  if (diag != nullptr) {
    // Zero deltas still register the counters, marking the stage as
    // instrumented (the dense path legitimately measures 0 of both).
    diag->add_counter(kStage, "flops", basis.solve_flops);
    diag->add_counter(kStage, "matrix_bytes_moved", basis.solve_bytes_moved);
  }
  return basis;
}

}  // namespace

EigenBasis compute_eigenbasis(const graph::Graph& g,
                              const EmbeddingOptions& opts,
                              Diagnostics* diag, ComputeBudget* budget) {
  StageTimerScope stage_timer(diag, kStage);
  // O(nnz) off the shared CSR adjacency — no triplet round-trip. The
  // normalized objective adds one more O(nnz) value rescale on top.
  linalg::SymCsrMatrix q = graph::build_laplacian(g);
  if (opts.objective == linalg::ObjectiveModel::kNormalizedSymmetric)
    q = linalg::normalized_laplacian(q);
  return eigenbasis_of_laplacian(q, opts, diag, budget);
}

EigenBasis compute_eigenbasis(const linalg::SymCsrMatrix& laplacian,
                              const EmbeddingOptions& opts,
                              Diagnostics* diag, ComputeBudget* budget) {
  StageTimerScope stage_timer(diag, kStage);
  return eigenbasis_of_laplacian(laplacian, opts, diag, budget);
}

}  // namespace specpart::spectral
