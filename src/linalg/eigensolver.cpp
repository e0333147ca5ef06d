#include "linalg/eigensolver.h"

#include "linalg/block_lanczos.h"

namespace specpart::linalg {

LanczosResult solve_smallest(const SymCsrMatrix& a, SolverBackend backend,
                             std::size_t want, std::uint64_t seed,
                             std::size_t max_iterations,
                             const ParallelConfig& parallel,
                             ComputeBudget* budget) {
  if (backend == SolverBackend::kBlock) {
    BlockLanczosOptions bopts;
    bopts.num_eigenpairs = want;
    bopts.max_iterations = max_iterations;
    bopts.tolerance = kSolverTolerance;
    bopts.seed = seed;
    bopts.budget = budget;
    bopts.parallel = parallel;
    return block_lanczos_smallest(a, bopts);
  }
  LanczosOptions lopts;
  lopts.num_eigenpairs = want;
  lopts.max_iterations = max_iterations;
  lopts.tolerance = kSolverTolerance;
  lopts.seed = seed;
  lopts.budget = budget;
  lopts.parallel = parallel;
  return lanczos_smallest(a, lopts);
}

}  // namespace specpart::linalg
