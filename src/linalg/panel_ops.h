#ifndef SPECPART_LINALG_PANEL_OPS_H_
#define SPECPART_LINALG_PANEL_OPS_H_

#include <cstdint>

#include "linalg/dense.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace specpart::linalg {

// Deterministic panel kernels of the multilevel V-cycle refinement
// (multilevel/vcycle.cpp). Every floating-point reduction goes through the
// fixed-block primitives of util/parallel.h, whose block structure depends
// only on n and the grain — never on the thread count — so 1, 2 and 8
// threads produce the same bits. Reductions over the rows of a panel run
// row-major (panel_column_sums); CGS2 runs on a column-major copy. The
// row loops run under simd::run (util/simd.h): one source, a baseline and
// an AVX2 clone, the same bits from either.

/// Per-column sums over the rows of a row-major panel in one pass:
/// add_row(r, partial) adds row r's term for every column c < width into
/// partial[c]. Each fixed row block starts its partials at 0.0 and adds
/// its rows in ascending order; block partials are added into zeroed
/// totals in block order. Column c therefore gets exactly the sum a
/// per-column parallel_reduce of the same terms would give. add_row is
/// compiled into each block's clone.
template <class AddRow>
Vec panel_column_sums(std::size_t rows, std::size_t width,
                      const ParallelConfig& par, AddRow&& add_row) {
  return parallel_reduce<Vec>(
      par, 0, rows, Vec(width, 0.0),
      [&](std::size_t lo, std::size_t hi) {
        Vec partial(width, 0.0);
        simd::run([&] {
          for (std::size_t r = lo; r < hi; ++r) add_row(r, partial.data());
        });
        return partial;
      },
      [width](Vec acc, Vec partial) {
        for (std::size_t c = 0; c < width; ++c) acc[c] += partial[c];
        return acc;
      });
}

/// C = P^T W (p.cols x w.cols), partials per row block combined in block
/// order — the panel generalization of the scalar solver's CGS2 panel dot.
DenseMatrix panel_dots(const Panel& p, const Panel& w,
                       const ParallelConfig& par);

/// In-place CGS2 QR of all columns of `x`, run on a column-major copy so
/// every dot, axpy and scale streams one contiguous column. A column whose
/// norm falls below `breakdown_tol` is refilled with a fresh random
/// direction from `rng`, orthogonalized against the preceding columns (the
/// V-cycle uses this to survive a rank-deficient interpolated panel; the
/// draw order is fixed, so the result is deterministic for any thread
/// count). Returns the number of columns that needed a restart.
std::size_t panel_qr_cgs2(Panel& x, double breakdown_tol,
                          const ParallelConfig& par, Rng& rng,
                          std::uint64_t& flops);

/// B = A * U where A is n x k (panel) and U is k x k2 — the Rayleigh-Ritz
/// panel rotation, row-blocked; each output row accumulates the rows of U
/// in ascending j (exact per element for any thread count).
void panel_rotate(const Panel& a, const DenseMatrix& u, Panel& out,
                  const ParallelConfig& par);

}  // namespace specpart::linalg

#endif  // SPECPART_LINALG_PANEL_OPS_H_
