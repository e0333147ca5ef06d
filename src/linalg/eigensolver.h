// Eigensolver backend selection: the solve configuration callers set and
// the one dispatch that runs the selected backend.
//
// SolverOptions is the single solver-configuration struct (owned by
// core::PipelineConfig and threaded through MeloOptions, the service and
// the tools). It holds only what callers set: the wire and the CLIs pick
// backend and strategy, tests move the dense thresholds to reach the
// Krylov and truncation paths on small inputs. Everything else is a named
// constant here or in multilevel/vcycle.h.
//
// Backend contract:
//  * kScalar — the single-vector Lanczos chain (lanczos.h). Given the same
//    inputs it is byte-identical to a direct lanczos_smallest call; this is
//    the default and the compatibility anchor for cached bases and
//    recorded wire traffic.
//  * kBlock — block Lanczos (block_lanczos.h): all wanted directions
//    advance through one sparse x panel product per step, moving ~b x fewer
//    Laplacian bytes per eigenpair; bit-identical across thread counts.
//
// Stable string tokens for the two backends ("scalar", "block") are parsed
// and printed in exactly one place: core/pipeline_config.{h,cpp}.
#pragma once

#include <cstdint>

#include "linalg/lanczos.h"
#include "linalg/sparse.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace specpart::linalg {

/// Which eigensolver implementation runs the eigensolve stage.
enum class SolverBackend { kScalar, kBlock };

/// How the eigensolve is orchestrated. kFlat runs the selected backend
/// directly on the full-size Laplacian. kMultilevel runs the coarsen /
/// solve / refine V-cycle (multilevel/vcycle.h): heavy-edge matching
/// contracts the matrix level by level, the coarsest level is solved
/// exactly, and the basis is interpolated back up with Chebyshev-filtered
/// Rayleigh-Ritz refinement sweeps — typically several times faster than a
/// flat Krylov solve at large n. When refinement cannot certify the
/// requested pairs the embedding layer falls back to the flat chain, so
/// the strategy is an accelerator, never a correctness risk.
enum class SolverStrategy { kFlat, kMultilevel };

/// Relative residual tolerance of every iterative solve, and the
/// convergence contract recorded in EigenBasis.
inline constexpr double kSolverTolerance = 1e-8;

/// The one solver-configuration struct. PipelineConfig owns an instance
/// (aliased as core::SolverOptions) and every layer passes it through
/// unchanged.
struct SolverOptions {
  SolverBackend backend = SolverBackend::kScalar;
  /// Orchestration strategy: flat backend solve (default) or the
  /// multilevel V-cycle.
  SolverStrategy strategy = SolverStrategy::kFlat;
  /// Problems with n <= dense_threshold skip Krylov entirely and use the
  /// exact dense decomposition (cheaper and unconditionally robust).
  std::size_t dense_threshold = 320;
  /// Largest n for which the embedding fallback chain may escalate a
  /// non-converged iterative solve to the dense solver (0 disables).
  std::size_t dense_fallback_limit = 2048;
};

/// Computes the `want` smallest eigenpairs of the symmetric sparse matrix
/// `a` with `backend` at kSolverTolerance. `max_iterations` caps the Krylov
/// columns (0 = the solver's automatic formula); the embedding fallback
/// chain reseeds and enlarges it per attempt. Threading and budget ride
/// alongside because they are pipeline state, not solver configuration.
LanczosResult solve_smallest(const SymCsrMatrix& a, SolverBackend backend,
                             std::size_t want, std::uint64_t seed,
                             std::size_t max_iterations,
                             const ParallelConfig& parallel,
                             ComputeBudget* budget);

}  // namespace specpart::linalg
