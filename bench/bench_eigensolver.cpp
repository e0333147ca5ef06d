// Microbenchmarks for the eigensolver substrate (google-benchmark).
//
// The paper quotes LASO2 Lanczos runtimes for its eigenvector computations;
// this is the equivalent measurement for our from-scratch Lanczos, plus the
// dense oracle and the per-check QL solve for context.
#include <benchmark/benchmark.h>

#include "graph/generator.h"
#include "graph/laplacian.h"
#include "linalg/lanczos.h"
#include "linalg/symmetric_eigen.h"
#include "linalg/tridiagonal.h"
#include "model/clique_models.h"

namespace {

using namespace specpart;

linalg::SymCsrMatrix benchmark_laplacian(std::size_t modules) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 10;
  cfg.seed = 99;
  const graph::Hypergraph h = graph::generate_netlist(cfg);
  return graph::build_laplacian(
      model::clique_expand(h, model::NetModel::kPartitioningSpecific));
}

void BM_LanczosSmallest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const linalg::SymCsrMatrix q = benchmark_laplacian(n);
  for (auto _ : state) {
    linalg::LanczosOptions opts;
    opts.num_eigenpairs = d;
    benchmark::DoNotOptimize(linalg::lanczos_smallest(q, opts));
  }
  state.SetLabel("n=" + std::to_string(n) + " d=" + std::to_string(d));
}
BENCHMARK(BM_LanczosSmallest)
    ->Args({500, 2})
    ->Args({500, 10})
    ->Args({2000, 2})
    ->Args({2000, 10})
    ->Args({6000, 10})
    ->Unit(benchmark::kMillisecond);

void BM_LanczosSelective(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const linalg::SymCsrMatrix q = benchmark_laplacian(n);
  for (auto _ : state) {
    linalg::LanczosOptions opts;
    opts.num_eigenpairs = d;
    opts.reorthogonalization = linalg::Reorthogonalization::kSelective;
    benchmark::DoNotOptimize(linalg::lanczos_smallest(q, opts));
  }
  state.SetLabel("n=" + std::to_string(n) + " d=" + std::to_string(d) +
                 " selective");
}
BENCHMARK(BM_LanczosSelective)
    ->Args({2000, 10})
    ->Args({6000, 10})
    ->Unit(benchmark::kMillisecond);

void BM_LanczosSmallestThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const linalg::SymCsrMatrix q = benchmark_laplacian(n);
  for (auto _ : state) {
    linalg::LanczosOptions opts;
    opts.num_eigenpairs = 10;
    opts.parallel = ParallelConfig::with_threads(threads);
    benchmark::DoNotOptimize(linalg::lanczos_smallest(q, opts));
  }
  state.SetLabel("n=" + std::to_string(n) + " d=10 threads:" +
                 std::to_string(threads));
}
BENCHMARK(BM_LanczosSmallestThreaded)
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({2000, 4})
    ->Args({2000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_DenseEigenOracle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::DenseMatrix a = benchmark_laplacian(n).to_dense();
  for (auto _ : state)
    benchmark::DoNotOptimize(linalg::solve_symmetric_eigen(a));
  state.SetLabel("n=" + std::to_string(n));
}
BENCHMARK(BM_DenseEigenOracle)->Arg(100)->Arg(200)->Arg(400)->Unit(
    benchmark::kMillisecond);

// One scalar-Lanczos Ritz check: the QL iteration of an m x m tridiagonal
// carrying only the last row of the eigenvector matrix, as
// lanczos_smallest runs it at every convergence check (the tridiagonal
// comes from a benchmark Laplacian of order m).
void BM_RitzCheck(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const linalg::Tridiagonal t = linalg::householder_tridiagonalize(
      benchmark_laplacian(m).to_dense(), nullptr);
  for (auto _ : state) {
    linalg::Tridiagonal work = t;
    const linalg::Vec row = linalg::tridiagonal_eigen_last_row(work);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("m=" + std::to_string(m));
}
BENCHMARK(BM_RitzCheck)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_SparseMatvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::SymCsrMatrix q = benchmark_laplacian(n);
  linalg::Vec x(n, 1.0), y;
  for (auto _ : state) {
    q.matvec(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q.nnz()));
}
BENCHMARK(BM_SparseMatvec)->Arg(2000)->Arg(6000)->Arg(20000);

void BM_SparseMatvecThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const linalg::SymCsrMatrix q = benchmark_laplacian(n);
  const ParallelConfig par = ParallelConfig::with_threads(threads);
  linalg::Vec x(n, 1.0), y;
  for (auto _ : state) {
    q.matvec(x, y, par);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q.nnz()));
  state.SetLabel("threads:" + std::to_string(threads));
}
BENCHMARK(BM_SparseMatvecThreaded)
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Args({20000, 8});

}  // namespace

BENCHMARK_MAIN();
