#include "linalg/dense.h"

#include <cmath>

#include "util/error.h"

namespace specpart::linalg {

double dot(const Vec& a, const Vec& b) {
  SP_ASSERT(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const Vec& a) { return std::sqrt(norm_sq(a)); }

double norm_sq(const Vec& a) { return dot(a, a); }

void axpy(double alpha, const Vec& x, Vec& y) {
  SP_ASSERT(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(Vec& x, double alpha) {
  for (double& v : x) v *= alpha;
}

double normalize(Vec& x) {
  const double n = norm(x);
  if (n > 0.0) scale(x, 1.0 / n);
  return n;
}

Vec sub(const Vec& a, const Vec& b) {
  SP_ASSERT(a.size() == b.size());
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vec add(const Vec& a, const Vec& b) {
  SP_ASSERT(a.size() == b.size());
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec Panel::col(std::size_t j) const {
  SP_ASSERT(j < cols_);
  Vec v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = data_[i * cols_ + j];
  return v;
}

void Panel::set_col(std::size_t j, const Vec& v) {
  SP_ASSERT(j < cols_ && v.size() == rows_);
  for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + j] = v[i];
}

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Vec DenseMatrix::matvec(const Vec& x) const {
  SP_ASSERT(x.size() == cols_);
  Vec y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    double s = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

Vec DenseMatrix::matvec_transposed(const Vec& x) const {
  SP_ASSERT(x.size() == rows_);
  Vec y(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    for (std::size_t j = 0; j < cols_; ++j) y[j] += row[j] * x[i];
  }
  return y;
}

Vec DenseMatrix::col(std::size_t j) const {
  SP_ASSERT(j < cols_);
  Vec v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = data_[i * cols_ + j];
  return v;
}

Vec DenseMatrix::row(std::size_t i) const {
  SP_ASSERT(i < rows_);
  return Vec(data_.begin() + static_cast<std::ptrdiff_t>(i * cols_),
             data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * cols_));
}

void DenseMatrix::set_col(std::size_t j, const Vec& v) {
  SP_ASSERT(j < cols_ && v.size() == rows_);
  for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + j] = v[i];
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  SP_ASSERT(cols_ == other.rows_);
  DenseMatrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[i * cols_ + k];
      if (a == 0.0) continue;
      const double* brow = &other.data_[k * other.cols_];
      double* orow = &out.data_[i * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out.at(j, i) = at(i, j);
  return out;
}

double DenseMatrix::frobenius() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  SP_ASSERT(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  return m;
}

}  // namespace specpart::linalg
