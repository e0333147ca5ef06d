// Vector partitioning — the problem the paper reduces graph partitioning to.
//
// An instance is a set of n vectors in d-space (rows of a matrix). A k-way
// partition S_k groups them into subsets S_1..S_k with subset vectors
// Y_h = sum_{y in S_h} y; the objective is the sum of squared subset-vector
// magnitudes g(S_k) = sum_h ||Y_h||^2, either maximized (max-sum, the form
// min-cut reduces to) or minimized (min-sum, via a different vector
// construction — see reduction.h). Corollary 5: min-sum vector partitioning
// is NP-hard; the exact solvers here are exponential and exist as oracles
// for small-instance tests and for studying the reduction.
#pragma once

#include <cstdint>

#include "linalg/dense.h"
#include "part/partition.h"

namespace specpart::core {

/// A vector partitioning instance: row i of `vectors` is the vector of
/// element i.
struct VectorInstance {
  linalg::DenseMatrix vectors;  // n x d

  std::size_t size() const { return vectors.rows(); }
  std::size_t dimension() const { return vectors.cols(); }
};

/// Subset vectors Y_h = sum of rows assigned to cluster h.
std::vector<linalg::Vec> subset_vectors(const VectorInstance& inst,
                                        const part::Partition& p);

/// g(S_k) = sum_h ||Y_h||^2.
double sum_of_squared_magnitudes(const VectorInstance& inst,
                                 const part::Partition& p);

/// Exhaustive max-sum solver: best of all k^n assignments whose cluster
/// sizes lie in [min_size, max_size] (0 = no upper bound). Only for tiny
/// instances (k^n enumerations); guarded by an input check.
part::Partition solve_max_sum_exact(const VectorInstance& inst,
                                    std::uint32_t k, std::size_t min_size = 0,
                                    std::size_t max_size = 0);

/// Exhaustive min-sum solver with the same constraints.
part::Partition solve_min_sum_exact(const VectorInstance& inst,
                                    std::uint32_t k, std::size_t min_size = 0,
                                    std::size_t max_size = 0);

}  // namespace specpart::core
