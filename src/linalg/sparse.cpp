#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.h"

namespace specpart::linalg {

SymCsrMatrix::SymCsrMatrix(std::size_t n,
                           const std::vector<Triplet>& triplets) {
  SP_ASSERT(n <= std::numeric_limits<std::uint32_t>::max());
  CsrAssembler& ws = thread_assembly_workspace();
  ws.begin(n);
  ws.reserve(triplets.size() * 2);
  for (const Triplet& t : triplets) {
    SP_ASSERT(t.row < n && t.col < n);
    ws.add_entry(static_cast<std::uint32_t>(t.row),
                 static_cast<std::uint32_t>(t.col), t.value);
    if (t.row != t.col)
      ws.add_entry(static_cast<std::uint32_t>(t.col),
                   static_cast<std::uint32_t>(t.row), t.value);
  }
  ws.finish(storage_);
}

void SymCsrMatrix::matvec(const Vec& x, Vec& y) const {
  matvec(x, y, ParallelConfig{});
}

void SymCsrMatrix::matvec(const Vec& x, Vec& y,
                          const ParallelConfig& par) const {
  const std::size_t n = storage_.num_rows();
  SP_ASSERT(x.size() == n);
  y.resize(n);  // no zero-fill: every y[i] is overwritten below
  parallel_for(par, 0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      double s = 0.0;
      for (std::size_t k = storage_.offsets[i]; k < storage_.offsets[i + 1];
           ++k)
        s += storage_.values[k] * x[storage_.cols[k]];
      y[i] = s;
    }
  });
}

Vec SymCsrMatrix::matvec(const Vec& x) const {
  Vec y;
  matvec(x, y);
  return y;
}

void SymCsrMatrix::spmm(const Panel& x, Panel& y,
                        const ParallelConfig& par) const {
  SP_ASSERT(&x != &y);
  SP_ASSERT(y.rows() == size() && y.cols() == x.cols());
  spmm_rows(x, par,
            [&y](std::size_t i, std::size_t c0, const double* acc,
                 std::size_t count) { std::copy_n(acc, count, y.row(i) + c0); });
}

std::size_t SymCsrMatrix::stream_bytes() const {
  return storage_.values.size() * sizeof(double) +
         storage_.cols.size() * sizeof(std::uint32_t) +
         storage_.offsets.size() * sizeof(std::size_t);
}

double SymCsrMatrix::at(std::size_t i, std::size_t j) const {
  SP_ASSERT(i < size() && j < size());
  for (std::size_t k = storage_.offsets[i]; k < storage_.offsets[i + 1]; ++k)
    if (storage_.cols[k] == j) return storage_.values[k];
  return 0.0;
}

double SymCsrMatrix::trace() const {
  // Walk each row once for its diagonal entry (columns are sorted, so the
  // scan can stop early) instead of paying at(i, i)'s full-row rescan.
  double t = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::size_t k = storage_.offsets[i]; k < storage_.offsets[i + 1];
         ++k) {
      if (storage_.cols[k] < i) continue;
      if (storage_.cols[k] == i) t += storage_.values[k];
      break;
    }
  }
  return t;
}

double SymCsrMatrix::gershgorin_upper() const {
  double bound = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    double radius = 0.0;
    double diag = 0.0;
    for (std::size_t k = storage_.offsets[i]; k < storage_.offsets[i + 1];
         ++k) {
      if (storage_.cols[k] == i)
        diag = storage_.values[k];
      else
        radius += std::fabs(storage_.values[k]);
    }
    bound = std::max(bound, diag + radius);
  }
  return bound;
}

DenseMatrix SymCsrMatrix::to_dense() const {
  DenseMatrix m(size(), size());
  for (std::size_t i = 0; i < size(); ++i)
    for (std::size_t k = storage_.offsets[i]; k < storage_.offsets[i + 1]; ++k)
      m.at(i, storage_.cols[k]) = storage_.values[k];
  return m;
}

}  // namespace specpart::linalg
