// Dense vectors and matrices.
//
// The library's numerical kernels are deliberately dependency-free: a thin
// row-major dense matrix plus free-function BLAS-1 style vector operations
// cover everything the spectral code needs (the heavy lifting is done by the
// sparse Lanczos solver in lanczos.h).
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.h"

namespace specpart::linalg {

/// Dense real vector.
using Vec = std::vector<double>;

/// Dot product. Sizes must match.
double dot(const Vec& a, const Vec& b);

/// Euclidean norm.
double norm(const Vec& a);

/// Squared Euclidean norm.
double norm_sq(const Vec& a);

/// y += alpha * x (sizes must match).
void axpy(double alpha, const Vec& x, Vec& y);

/// x *= alpha.
void scale(Vec& x, double alpha);

/// Normalizes x to unit length; returns the original norm. If the norm is
/// (near) zero the vector is left untouched and 0 is returned.
double normalize(Vec& x);

/// Elementwise a - b.
Vec sub(const Vec& a, const Vec& b);

/// Elementwise a + b.
Vec add(const Vec& a, const Vec& b);

/// Contiguous row-major n x b panel: the multi-vector operand of the
/// blocked sparse kernels (SymCsrMatrix::spmm, the V-cycle's refinement).
///
/// Row-major is the SIMD-friendly layout for sparse x dense-panel products:
/// the inner update y[i][:] += a_ij * x[j][:] streams one contiguous b-wide
/// row per nonzero, so the compiler can vectorize over the panel width and
/// each CSR value is loaded once for all b columns instead of once per
/// column. Kept separate from DenseMatrix so kernel signatures say "panel"
/// (tall, narrow, row-contiguous) rather than "any matrix".
class Panel {
 public:
  Panel() = default;
  Panel(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Contiguous b-wide row i.
  double* row(std::size_t i) { return data_.data() + i * cols_; }
  const double* row(std::size_t i) const { return data_.data() + i * cols_; }

  double& at(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double at(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Column j as a vector (strided gather; for tests and extraction).
  Vec col(std::size_t j) const;
  void set_col(std::size_t j, const Vec& v);

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Bounds-checked element access. Defined here so the O(n^3) dense
  /// eigensolver loops inline it.
  double& at(std::size_t i, std::size_t j) {
    SP_ASSERT(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double at(std::size_t i, std::size_t j) const {
    SP_ASSERT(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// y = A x.
  Vec matvec(const Vec& x) const;

  /// y = A^T x.
  Vec matvec_transposed(const Vec& x) const;

  /// Returns column j as a vector.
  Vec col(std::size_t j) const;

  /// Returns row i as a vector.
  Vec row(std::size_t i) const;

  void set_col(std::size_t j, const Vec& v);

  /// C = A * B.
  DenseMatrix multiply(const DenseMatrix& other) const;

  /// A^T.
  DenseMatrix transposed() const;

  /// Frobenius norm.
  double frobenius() const;

  /// Max |A_ij - B_ij|; matrices must have identical shape.
  double max_abs_diff(const DenseMatrix& other) const;

  /// Raw storage access (row-major) for the eigensolver kernels.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace specpart::linalg
