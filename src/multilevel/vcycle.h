// Multilevel eigensolver: the coarsen / solve / refine V-cycle over the
// CSR data plane.
//
// A flat Krylov solve on a large clique-model Laplacian spends most of its
// time resolving a quasi-continuum of low eigenvalues — hundreds of Krylov
// columns, each one a full sweep of the matrix. The V-cycle sidesteps
// that: heavy-edge matching (coarsen.h) contracts the matrix level by
// level down to a few hundred vertices, the coarsest problem is solved
// exactly by the dense decomposition, and the basis rides back up through
// piecewise-constant interpolation + CGS2 re-orthonormalization +
// Rayleigh-Ritz refinement sweeps. Between sweeps a degree-p Chebyshev
// filter on [lo, hi] (lo just above the current Ritz window, hi the
// Gershgorin bound) damps everything above the wanted band — single power
// steps on sigma I - L are useless here because sigma >> lambda_d, so the
// three-term Chebyshev recurrence does the separation work. Each filter
// degree is one pass of the SpMM accumulation loop
// (SymCsrMatrix::spmm_rows) whose epilogue writes the recurrence's next
// iterate over the previous one.
//
// Every floating-point path is either serial or built on the fixed-block
// primitives of util/parallel.h (panel_ops, spmm_rows), so the result is
// bit-identical across 1, 2 and 8 threads.
//
// Convergence contract: the sweeps aspire to linalg::kSolverTolerance, but
// on instances whose low spectrum is a clustered quasi-continuum the
// filter's separation power caps the certifiable residual well above it.
// kRefineTolerance (relative, 1e-4) is the documented acceptance bound
// governing the returned `converged` flag; callers that need the tight
// tolerance fall back to a flat solve when it is unmet
// (spectral/embedding.cpp does exactly that).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/lanczos.h"
#include "linalg/sparse.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace specpart::multilevel {

/// Stop coarsening once this few vertices remain (the coarsest level is
/// then solved exactly; the floor is raised to twice the panel width).
inline constexpr std::size_t kCoarsestSize = 400;
/// Chebyshev filter degree applied between Rayleigh-Ritz refinement sweeps.
inline constexpr std::size_t kRefineDegree = 50;
/// Refinement sweep cap on the finest level and on intermediate levels.
inline constexpr std::size_t kFinestRefineSweeps = 20;
inline constexpr std::size_t kRefineSweeps = 10;
/// Relative Ritz-residual acceptance threshold (times the Gershgorin
/// scale) that governs the result's `converged` flag. Pairs within this
/// bound are accepted; anything worse triggers the embedding layer's
/// flat-solve fallback.
inline constexpr double kRefineTolerance = 1e-4;

/// Per-level refinement record, finest level last.
struct LevelStats {
  std::size_t n = 0;
  std::size_t nnz = 0;
  /// Rayleigh-Ritz sweeps spent on this level.
  std::size_t sweeps = 0;
  /// Final max Ritz residual over the wanted pairs, relative to the
  /// level's Gershgorin scale.
  double relative_residual = 0.0;
  double seconds = 0.0;
};

struct MultilevelStats {
  std::size_t levels = 0;
  std::size_t coarsest_n = 0;
  /// finest n / coarsest n (1.0 when no coarsening happened).
  double coarsening_ratio = 1.0;
  double coarsen_seconds = 0.0;
  double coarse_solve_seconds = 0.0;
  double refine_seconds = 0.0;
  /// One entry per refined level, coarse-to-fine order (finest last).
  std::vector<LevelStats> per_level;

  std::size_t total_sweeps() const {
    std::size_t s = 0;
    for (const LevelStats& l : per_level) s += l.sweeps;
    return s;
  }
};

/// Computes the `want` smallest eigenpairs of the symmetric sparse matrix
/// `a` through the V-cycle; `converged` in the result reflects
/// kRefineTolerance (see the file comment). The FLOP / bytes-moved
/// counters accumulate across every level, comparable with the flat
/// solvers'. One refinement sweep charges one budget unit; on exhaustion
/// the best basis so far is returned with budget_exhausted set.
/// `galerkin_general` selects the exact P^T M P contraction for
/// non-Laplacian symmetric operators (the normalized objective); the
/// default keeps the contracted-graph path byte-identical for plain
/// Laplacians (see CoarsenOptions::galerkin_general).
linalg::LanczosResult multilevel_solve_smallest(
    const linalg::SymCsrMatrix& a, std::size_t want, std::uint64_t seed,
    const ParallelConfig& parallel, ComputeBudget* budget = nullptr,
    MultilevelStats* stats = nullptr, bool galerkin_general = false);

}  // namespace specpart::multilevel
