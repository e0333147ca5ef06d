// Symmetric tridiagonal eigensolver (implicit-shift QL) and Householder
// reduction of dense symmetric matrices to tridiagonal form.
//
// These are ports of the classic EISPACK tred2/tql2 algorithms; together
// they provide an exact O(n^3) symmetric eigensolver used (a) directly for
// small graphs and test oracles, and (b) inside Lanczos to diagonalize the
// projected tridiagonal matrix. Both loops run under simd::run
// (util/simd.h): a baseline and an AVX2 clone of one source, the same bits
// from either.
#pragma once

#include "linalg/dense.h"

namespace specpart::linalg {

/// Symmetric tridiagonal matrix: diag has size n, off has size n with
/// off[0] unused (off[i] couples rows i-1 and i, following EISPACK layout).
struct Tridiagonal {
  Vec diag;
  Vec off;
};

/// Reduces symmetric A (n-by-n) to tridiagonal form T = Q^T A Q.
/// On return `accumulated` holds Q (orthogonal, columns are the transform).
/// A is passed by value and consumed as workspace.
Tridiagonal householder_tridiagonalize(DenseMatrix a, DenseMatrix* accumulated);

/// Diagonalizes a symmetric tridiagonal matrix in place using the QL
/// algorithm with implicit shifts.
///
/// On entry `z` must be either the identity (eigenvectors of T itself) or
/// the orthogonal matrix accumulated by householder_tridiagonalize
/// (eigenvectors of the original dense matrix). On return t.diag holds the
/// eigenvalues sorted ascending and the columns of z the matching
/// orthonormal eigenvectors. Throws specpart::Error if QL fails to converge
/// (pathological input; does not occur for finite well-scaled matrices).
void tridiagonal_eigen(Tridiagonal& t, DenseMatrix& z);

/// tridiagonal_eigen with z = identity, keeping only the last row of the
/// eigenvector matrix: on return t.diag holds the eigenvalues sorted
/// ascending and element j of the result is z(n-1, j), both bit for bit
/// what tridiagonal_eigen computes. Each rotation costs O(1) instead of
/// O(n), which is what Lanczos' convergence checks need (their residuals
/// read only that row).
Vec tridiagonal_eigen_last_row(Tridiagonal& t);

/// Convenience: eigenvalues only (ascending) of a symmetric tridiagonal.
Vec tridiagonal_eigenvalues(Tridiagonal t);

}  // namespace specpart::linalg
