// Lanczos iteration for the extreme eigenpairs of large sparse symmetric
// matrices.
//
// The paper computes Laplacian eigenvectors with the LASO2 Lanczos package
// [39]; this module is the from-scratch substitute. We use full
// reorthogonalization (robust and plenty fast at the d <= ~25 eigenvectors
// the experiments need) and the standard spectral-shift trick: to obtain the
// *smallest* eigenpairs of A we run Lanczos on B = sigma*I - A with sigma an
// upper bound on lambda_max(A) (Gershgorin), so the wanted pairs become the
// dominant ones and converge first — mirroring the paper's remark that
// eigenvector i always converges before eigenvector j for i < j.
#pragma once

#include <cstdint>
#include <functional>

#include "linalg/dense.h"
#include "linalg/sparse.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace specpart::linalg {

/// Reorthogonalization policy.
///  * kFull — w is orthogonalized against the whole basis every iteration
///    (robust; O(n m^2) total).
///  * kSelective — Simon's omega recurrence estimates the loss of
///    orthogonality and triggers a full sweep only when the estimate
///    crosses sqrt(machine epsilon); this is the strategy family LASO2
///    [39] used, and is noticeably faster at large Krylov dimensions.
enum class Reorthogonalization { kFull, kSelective };

/// Tuning knobs for the Lanczos solver. Defaults are good for clique-model
/// Laplacians of circuits with up to ~10^5 vertices.
struct LanczosOptions {
  /// How many eigenpairs (smallest eigenvalues) to return.
  std::size_t num_eigenpairs = 2;
  /// Hard cap on Krylov dimension; 0 means automatic
  /// (min(n, max(20 * num_eigenpairs + 120, 200))).
  std::size_t max_iterations = 0;
  /// Relative residual tolerance: converged when
  /// ||A x - lambda x|| <= tolerance * sigma.
  double tolerance = 1e-9;
  /// Seed for the random start vector.
  std::uint64_t seed = 0xC0FFEEULL;
  Reorthogonalization reorthogonalization = Reorthogonalization::kFull;
  /// Optional shared compute budget (nullptr = unlimited). One Lanczos
  /// iteration costs one budget unit; on exhaustion the solver stops and
  /// returns the best Ritz pairs of the basis built so far (at least one
  /// iteration always runs so the result is usable).
  ComputeBudget* budget = nullptr;
  /// Compute-kernel threading (see util/parallel.h). The serial default is
  /// byte-identical to the original implementation. With > 1 thread the
  /// SpMV is split by row blocks and the Gram-Schmidt sweeps become blocked
  /// multi-vector dot/axpy panels (classical GS with two sweeps instead of
  /// modified GS); results are then bit-identical across every thread
  /// count >= 2, and agree with the serial path to solver tolerance.
  ParallelConfig parallel;
};

/// Eigenpairs: values[j] ascending, column j of `vectors` the matching
/// orthonormal eigenvector.
struct LanczosResult {
  Vec values;
  DenseMatrix vectors;
  /// Krylov dimension actually used.
  std::size_t iterations = 0;
  /// True if all requested pairs met the residual tolerance.
  bool converged = false;
  /// Length of the leading prefix of returned pairs that individually met
  /// the residual tolerance (eigenpair i converges before j for i < j, so
  /// a prefix is the natural unit of partial success).
  std::size_t num_converged = 0;
  /// Invariant-subspace restarts taken (fresh random directions).
  std::size_t breakdown_restarts = 0;
  /// True when the iteration stopped because the compute budget ran out.
  bool budget_exhausted = false;
  /// Operator applications, counted in single-column (matvec) equivalents:
  /// one per iteration for Lanczos, the panel width per SpMM for the
  /// V-cycle's refinement sweeps.
  std::size_t operator_applies = 0;
  /// Leading-order floating-point operations spent (operator applies plus
  /// orthogonalization); per-eigenpair cost = flops / num_converged.
  std::uint64_t flops = 0;
  /// Matrix CSR bytes streamed (SymCsrMatrix::stream_bytes per sweep):
  /// Lanczos sweeps the matrix once per iteration, so this is
  /// operator_applies * stream_bytes(); a V-cycle SpMM sweeps it once for
  /// a whole panel.
  std::uint64_t matrix_bytes_moved = 0;
  /// Wall-clock phase split (Lanczos only; the V-cycle leaves them 0):
  /// operator applies, reorthogonalization sweeps, and the Ritz work —
  /// the convergence checks plus the closing decomposition of T.
  double apply_seconds = 0.0;
  double reorth_seconds = 0.0;
  double ritz_check_seconds = 0.0;
};

/// Computes the `opts.num_eigenpairs` smallest eigenpairs of the symmetric
/// sparse matrix `a`. Handles invariant subspaces (e.g. disconnected graph
/// Laplacians: multiple zero eigenvalues) by restarting with fresh random
/// directions. Requests for more pairs than n are clamped to n.
LanczosResult lanczos_smallest(const SymCsrMatrix& a, LanczosOptions opts);

/// Generic operator version: `apply(x, y)` must compute y = B x for a
/// symmetric positive operator B of dimension n whose *largest* eigenpairs
/// are wanted. Returned values are eigenvalues of B, descending.
LanczosResult lanczos_largest_op(
    std::size_t n, const std::function<void(const Vec&, Vec&)>& apply,
    double op_norm_estimate, LanczosOptions opts);

}  // namespace specpart::linalg
