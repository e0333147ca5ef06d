// Spectral embedding driver: Laplacian eigenpairs of a graph.
//
// Chooses between the exact dense solver (small graphs, test oracles) and
// Lanczos (everything else). The Lanczos path is wrapped in a hardened
// fallback chain — reseeded restart, enlarged Krylov space, dense solve
// even above the threshold, and finally truncation to the converged
// eigenpair prefix — so a clustered spectrum degrades the basis gracefully
// instead of aborting the pipeline. Every recovery step is recorded in the
// optional Diagnostics sink. All spectral heuristics (SB, RSB, KP, SFC,
// MELO) get their eigenvectors from here.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "linalg/dense.h"
#include "linalg/eigensolver.h"
#include "linalg/objective.h"
#include "linalg/sparse.h"
#include "util/budget.h"
#include "util/parallel.h"
#include "util/status.h"

namespace specpart::spectral {

struct EmbeddingOptions {
  /// Number of eigenpairs to return, counted from the smallest eigenvalue
  /// (the first pair of a connected graph is the trivial lambda = 0 /
  /// constant-vector pair).
  std::size_t count = 2;
  /// Drop the trivial first pair and return the `count` pairs after it.
  bool skip_trivial = false;
  std::uint64_t seed = 0xABCDEFULL;
  /// The one solver-configuration struct: strategy (flat | multilevel),
  /// dense threshold / fallback limit.
  linalg::SolverOptions solver;
  /// Compute-kernel threading, forwarded to the iterative solvers (the
  /// dense oracle stays serial). See LanczosOptions::parallel.
  ParallelConfig parallel;
  /// Which symmetric operator the eigensolve runs on (linalg/objective.h).
  /// The Graph overload derives the operator itself; the matrix overload
  /// expects the caller to pass the matching operator (the objective here
  /// then only selects the multilevel strategy's general Galerkin
  /// contraction). The default keeps every solve byte-identical to the
  /// pre-objective pipeline.
  linalg::ObjectiveModel objective = linalg::ObjectiveModel::kUnnormalized;
};

/// Eigenpairs of the Laplacian plus the invariants MELO's H-selection needs.
struct EigenBasis {
  /// Eigenvalues, ascending. values[j] pairs with column j of vectors.
  linalg::Vec values;
  /// n x d matrix; column j is a unit eigenvector.
  linalg::DenseMatrix vectors;
  /// trace(Q) = sum of ALL n eigenvalues — known exactly without computing
  /// the unused ones; drives the H estimate (reduction.h).
  double laplacian_trace = 0.0;
  std::size_t n = 0;
  /// True when every *returned* pair met the residual tolerance.
  bool converged = false;
  /// Pairs the caller asked for (after trivial-pair accounting). When
  /// dimension() < requested the basis was truncated by the fallback chain
  /// and downstream d should degrade to dimension().
  std::size_t requested = 0;
  /// Leading returned pairs that individually met the tolerance.
  std::size_t converged_pairs = 0;
  /// True when the fallback chain truncated the basis to its converged
  /// prefix (dimension() < requested).
  bool truncated = false;
  /// True when the eigensolve stopped early on an exhausted ComputeBudget.
  bool budget_exhausted = false;
  /// Leading-order floating-point operations the eigensolve spent, summed
  /// over every fallback attempt (0 for the dense path and cache hits).
  std::uint64_t solve_flops = 0;
  /// Laplacian CSR bytes streamed by the eigensolve, summed over attempts.
  std::uint64_t solve_bytes_moved = 0;

  std::size_t dimension() const { return values.size(); }
};

/// Computes the smallest Laplacian eigenpairs of `g` per `opts`.
/// `diag` (optional) receives stage timing, fallback and warning records;
/// `budget` (optional) bounds the eigensolve — on exhaustion the best
/// basis built so far is returned with `budget_exhausted` set. The result
/// always has >= 1 column for a non-empty graph.
EigenBasis compute_eigenbasis(const graph::Graph& g,
                              const EmbeddingOptions& opts,
                              Diagnostics* diag = nullptr,
                              ComputeBudget* budget = nullptr);

/// Same solve on an already-built operator matrix — the entry point for the
/// fused hypergraph -> Laplacian data plane (model::build_clique_laplacian /
/// CliqueModel::operator_matrix), which never materializes a Graph. The
/// matrix must match opts.objective (the plain Laplacian for kUnnormalized,
/// the degree-normalized operator for kNormalizedSymmetric). Produces
/// bit-identical results to the Graph overload on the operator it would
/// derive.
EigenBasis compute_eigenbasis(const linalg::SymCsrMatrix& laplacian,
                              const EmbeddingOptions& opts,
                              Diagnostics* diag = nullptr,
                              ComputeBudget* budget = nullptr);

}  // namespace specpart::spectral
