// Symmetric sparse matrices in compressed-sparse-row form.
//
// Graph Laplacians of clique-expanded netlists are symmetric with a few
// dozen nonzeros per row; CSR with both triangles stored gives the fastest
// matvec, which dominates the Lanczos runtime. The storage itself is the
// shared linalg::CsrStorage data plane (see linalg/csr.h): the adjacency in
// graph::Graph and the Laplacian here are the same offsets/cols/values
// layout, so converting between them is an O(nnz) copy, never a rebuild.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "linalg/csr.h"
#include "linalg/dense.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace specpart::linalg {

/// One (i, j, value) entry of a matrix under construction.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Symmetric sparse matrix, CSR storage of the *full* pattern.
///
/// Built from triplets (duplicates summed in insertion order) or adopted
/// directly from a CsrStorage assembled elsewhere. Symmetry is by
/// construction: each off-diagonal triplet (i, j, v) inserts both (i,j)
/// and (j,i); adopted storage must already hold both triangles.
class SymCsrMatrix {
 public:
  SymCsrMatrix() = default;

  /// Builds an n-by-n symmetric matrix. Off-diagonal triplets are mirrored;
  /// diagonal triplets inserted once. Duplicate coordinates are summed in
  /// insertion order (the assembler's stable-merge contract).
  SymCsrMatrix(std::size_t n, const std::vector<Triplet>& triplets);

  /// Adopts an already-assembled CSR structure without copying. The caller
  /// guarantees the pattern is symmetric (both triangles stored) with
  /// sorted columns per row — what CsrAssembler produces for mirrored
  /// entries, and what build_laplacian / build_clique_laplacian emit.
  explicit SymCsrMatrix(CsrStorage storage) : storage_(std::move(storage)) {}

  std::size_t size() const { return storage_.num_rows(); }

  /// Number of stored nonzeros (both triangles).
  std::size_t nnz() const { return storage_.nnz(); }

  /// y = A x. The ParallelConfig overload splits the rows into fixed
  /// blocks; every y[i] is an independent per-row sum, so the result is
  /// bit-identical for any thread count (including the serial default).
  void matvec(const Vec& x, Vec& y) const;
  void matvec(const Vec& x, Vec& y, const ParallelConfig& par) const;
  Vec matvec(const Vec& x) const;

  /// Y = A X for an n x b panel (see linalg::Panel): the blocked SpMM that
  /// advances all b Krylov directions through one sweep of the matrix. The
  /// store epilogue of spmm_rows; `x` and `y` must be different panels (an
  /// aliased call would read rows it has already overwritten). Every Y
  /// element is bit-identical to matvec of its column, for any thread
  /// count.
  void spmm(const Panel& x, Panel& y, const ParallelConfig& par = {}) const;

  /// The SpMM accumulation loop, with the store left to the caller. Rows
  /// are split into fixed blocks like matvec. Each row's columns go in
  /// fixed-width chunks (16, then 8/4/2/1 for the remainder) whose sums
  /// live in local accumulators: each starts at 0.0 and adds a_ik * x_k[c]
  /// over the row's nonzeros in CSR order — matvec's operations in
  /// matvec's order, so the result is bit-identical for any thread count
  /// and either kernel clone (each row block runs under simd::run,
  /// util/simd.h). Each chunk ends in one call
  ///   store(i, c0, acc, count)   // acc[c] = (A X)(i, c0 + c), c < count
  /// from whichever thread owns row i; the store is compiled into the
  /// block's clone, so it gets AVX2 too. The store may write row i of any
  /// panel except `x` (for example over the previous iterate of a
  /// recurrence); it must never write `x`, whose rows other blocks are
  /// still reading.
  template <class Store>
  void spmm_rows(const Panel& x, const ParallelConfig& par,
                 Store&& store) const;

  /// Bytes one full sweep of the CSR arrays streams (values + column
  /// indices + row offsets): the unit of the eigensolver bytes-moved
  /// counters. One matvec moves stream_bytes(); one spmm over a b-wide
  /// panel also moves stream_bytes(), amortized over b columns.
  std::size_t stream_bytes() const;

  /// Entry lookup (linear scan within the row; intended for tests).
  double at(std::size_t i, std::size_t j) const;

  /// Sum of diagonal entries.
  double trace() const;

  /// Gershgorin upper bound on the largest eigenvalue:
  /// max_i (a_ii + sum_{j != i} |a_ij|).
  double gershgorin_upper() const;

  /// Dense copy (tests / small-n exact eigensolves).
  DenseMatrix to_dense() const;

  /// Row access for algorithms that iterate neighbours.
  std::size_t row_begin(std::size_t i) const { return storage_.offsets[i]; }
  std::size_t row_end(std::size_t i) const { return storage_.offsets[i + 1]; }
  std::size_t col_index(std::size_t k) const { return storage_.cols[k]; }
  double value(std::size_t k) const { return storage_.values[k]; }

  /// The underlying shared-layout storage (read-only).
  const CsrStorage& csr() const { return storage_; }

 private:
  CsrStorage storage_;
};

template <class Store>
void SymCsrMatrix::spmm_rows(const Panel& x, const ParallelConfig& par,
                             Store&& store) const {
  const std::size_t n = storage_.num_rows();
  const std::size_t b = x.cols();
  SP_ASSERT(x.rows() == n);
  const std::size_t* offsets = storage_.offsets.data();
  const std::uint32_t* cols = storage_.cols.data();
  const double* values = storage_.values.data();
  const double* xd = x.data();
  parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
    simd::run([&] {  // the store is inlined into the block's clone
      for (std::size_t i = lo; i < hi; ++i) {
        // A compile-time width keeps acc in registers; b is a runtime value.
        const auto chunk = [&](std::size_t c0, auto width) {
          constexpr std::size_t kWidth = decltype(width)::value;
          double acc[kWidth];
          for (std::size_t c = 0; c < kWidth; ++c) acc[c] = 0.0;
          for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const double a = values[k];
            const double* xk = xd + cols[k] * b + c0;
            for (std::size_t c = 0; c < kWidth; ++c) acc[c] += a * xk[c];
          }
          store(i, c0, acc, kWidth);
        };
        std::size_t c0 = 0;
        for (; b - c0 >= 16; c0 += 16)
          chunk(c0, std::integral_constant<std::size_t, 16>{});
        if (b - c0 >= 8) {
          chunk(c0, std::integral_constant<std::size_t, 8>{});
          c0 += 8;
        }
        if (b - c0 >= 4) {
          chunk(c0, std::integral_constant<std::size_t, 4>{});
          c0 += 4;
        }
        if (b - c0 >= 2) {
          chunk(c0, std::integral_constant<std::size_t, 2>{});
          c0 += 2;
        }
        if (b - c0 >= 1) chunk(c0, std::integral_constant<std::size_t, 1>{});
      }
    });
  });
}

}  // namespace specpart::linalg
