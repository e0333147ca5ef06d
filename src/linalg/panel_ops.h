#ifndef SPECPART_LINALG_PANEL_OPS_H_
#define SPECPART_LINALG_PANEL_OPS_H_

#include <cstdint>

#include "linalg/dense.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace specpart::linalg {

// Deterministic panel kernels of the multilevel V-cycle refinement
// (multilevel/vcycle.cpp). Every floating-point reduction goes through the
// fixed-block primitives of util/parallel.h, whose block structure depends
// only on n and the grain — never on the thread count — so 1, 2 and 8
// threads produce the same bits.

/// dot of column `ca` of `p` with column `cb` of `q` (strided rows).
double panel_col_dot(const Panel& p, std::size_t ca, const Panel& q,
                     std::size_t cb, const ParallelConfig& par);

/// Column cb of q += alpha * column ca of p (disjoint rows: exact).
void panel_col_axpy(double alpha, const Panel& p, std::size_t ca, Panel& q,
                    std::size_t cb, const ParallelConfig& par);

/// Column c of p *= alpha.
void panel_col_scale(Panel& p, std::size_t c, double alpha,
                     const ParallelConfig& par);

/// C = P^T W (p.cols x w.cols), partials per row block combined in block
/// order — the panel generalization of the scalar solver's CGS2 panel dot.
DenseMatrix panel_dots(const Panel& p, const Panel& w,
                       const ParallelConfig& par);

/// In-place CGS2 QR of all columns of `x`. A column whose norm falls below
/// `breakdown_tol` is refilled with a fresh random direction from `rng`,
/// orthogonalized against the preceding columns (the V-cycle uses this to
/// survive a rank-deficient interpolated panel; the draw order is fixed,
/// so the result is deterministic for any thread count). Returns the
/// number of columns that needed a restart.
std::size_t panel_qr_cgs2(Panel& x, double breakdown_tol,
                          const ParallelConfig& par, Rng& rng,
                          std::uint64_t& flops);

/// B = A * U where A is n x k (panel) and U is k x k2 — the Rayleigh-Ritz
/// panel rotation, row-blocked (exact per element for any thread count).
void panel_rotate(const Panel& a, const DenseMatrix& u, Panel& out,
                  const ParallelConfig& par);

}  // namespace specpart::linalg

#endif  // SPECPART_LINALG_PANEL_OPS_H_
