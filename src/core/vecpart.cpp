#include "core/vecpart.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace specpart::core {

std::vector<linalg::Vec> subset_vectors(const VectorInstance& inst,
                                        const part::Partition& p) {
  SP_ASSERT(p.num_nodes() == inst.size());
  std::vector<linalg::Vec> sums(p.k(), linalg::Vec(inst.dimension(), 0.0));
  for (std::size_t i = 0; i < inst.size(); ++i) {
    linalg::Vec& target = sums[p.cluster_of(static_cast<graph::NodeId>(i))];
    for (std::size_t j = 0; j < inst.dimension(); ++j)
      target[j] += inst.vectors.at(i, j);
  }
  return sums;
}

double sum_of_squared_magnitudes(const VectorInstance& inst,
                                 const part::Partition& p) {
  double total = 0.0;
  for (const linalg::Vec& y : subset_vectors(inst, p))
    total += linalg::norm_sq(y);
  return total;
}

namespace {

part::Partition solve_exact(const VectorInstance& inst, std::uint32_t k,
                            std::size_t min_size, std::size_t max_size,
                            bool maximize) {
  const std::size_t n = inst.size();
  SP_CHECK_INPUT(k >= 1, "exact vector partitioning: k >= 1");
  SP_CHECK_INPUT(n <= 16 && std::pow(static_cast<double>(k),
                                     static_cast<double>(n)) <= 2e7,
                 "exact vector partitioning: instance too large");
  if (max_size == 0) max_size = n;

  std::vector<std::uint32_t> assignment(n, 0);
  std::vector<std::uint32_t> best_assignment;
  double best = maximize ? -std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::infinity();
  for (;;) {
    // Evaluate the current assignment if its sizes are feasible.
    std::vector<std::size_t> sizes(k, 0);
    for (std::uint32_t c : assignment) ++sizes[c];
    bool ok = true;
    for (std::size_t s : sizes)
      if (s < min_size || s > max_size) ok = false;
    if (ok) {
      const part::Partition p(assignment, k);
      const double value = sum_of_squared_magnitudes(inst, p);
      if ((maximize && value > best) || (!maximize && value < best)) {
        best = value;
        best_assignment = assignment;
      }
    }
    // Odometer increment over k^n assignments.
    std::size_t pos = 0;
    while (pos < n && ++assignment[pos] == k) {
      assignment[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  SP_CHECK_INPUT(!best_assignment.empty(),
                 "exact vector partitioning: constraints infeasible");
  return part::Partition(std::move(best_assignment), k);
}

}  // namespace

part::Partition solve_max_sum_exact(const VectorInstance& inst,
                                    std::uint32_t k, std::size_t min_size,
                                    std::size_t max_size) {
  return solve_exact(inst, k, min_size, max_size, /*maximize=*/true);
}

part::Partition solve_min_sum_exact(const VectorInstance& inst,
                                    std::uint32_t k, std::size_t min_size,
                                    std::size_t max_size) {
  return solve_exact(inst, k, min_size, max_size, /*maximize=*/false);
}

}  // namespace specpart::core
