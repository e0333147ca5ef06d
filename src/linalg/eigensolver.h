// Eigensolver configuration: the solve settings callers set.
//
// SolverOptions is the single solver-configuration struct (owned by
// core::PipelineConfig and threaded through MeloOptions, the service and
// the tools). It holds only what callers set: the wire and the CLIs pick
// the strategy, tests move the dense thresholds to reach the Krylov and
// truncation paths on small inputs. Everything else is a named constant
// here or in multilevel/vcycle.h.
//
// The Krylov solver is the single-vector Lanczos chain of lanczos.h, which
// the embedding layer (spectral/embedding.cpp) calls directly. Its token
// ("scalar") is parsed and printed in exactly one place:
// core/pipeline_config.{h,cpp}.
#pragma once

#include <cstddef>

namespace specpart::linalg {

/// The eigensolver implementation: the scalar Lanczos chain is the only
/// one. Its "scalar" token is mixed into cache keys and written into
/// stored basis headers, so keys and tier-2 files keep their bytes.
enum class SolverBackend { kScalar };

/// How the eigensolve is orchestrated. kFlat runs Lanczos directly on the
/// full-size Laplacian. kMultilevel runs the coarsen / solve / refine
/// V-cycle (multilevel/vcycle.h): heavy-edge matching contracts the matrix
/// level by level, the coarsest level is solved exactly, and the basis is
/// interpolated back up with Chebyshev-filtered Rayleigh-Ritz refinement
/// sweeps — typically several times faster than a flat Krylov solve at
/// large n. When refinement cannot certify the requested pairs the
/// embedding layer falls back to the flat chain, so the strategy is an
/// accelerator, never a correctness risk.
enum class SolverStrategy { kFlat, kMultilevel };

/// Relative residual tolerance of every iterative solve, and the
/// convergence contract recorded in EigenBasis.
inline constexpr double kSolverTolerance = 1e-8;

/// The one solver-configuration struct. PipelineConfig owns an instance
/// (aliased as core::SolverOptions) and every layer passes it through
/// unchanged.
struct SolverOptions {
  SolverBackend backend = SolverBackend::kScalar;
  /// Orchestration strategy: flat Lanczos solve (default) or the
  /// multilevel V-cycle.
  SolverStrategy strategy = SolverStrategy::kFlat;
  /// Problems with n <= dense_threshold skip Krylov entirely and use the
  /// exact dense decomposition (cheaper and unconditionally robust).
  std::size_t dense_threshold = 320;
  /// Largest n for which the embedding fallback chain may escalate a
  /// non-converged iterative solve to the dense solver (0 disables).
  std::size_t dense_fallback_limit = 2048;
};

}  // namespace specpart::linalg
