// Microbenchmarks for the algorithmic kernels (google-benchmark): MELO
// ordering construction (serial and threaded), DP-RP splitting, FM passes,
// and the clique expansion.
#include <benchmark/benchmark.h>

#include "core/drivers.h"
#include "core/melo.h"
#include "core/reduction.h"
#include "graph/generator.h"
#include "model/assembly.h"
#include "model/clique_models.h"
#include "seed_assembly.h"
#include "part/fm.h"
#include "spectral/dprp.h"
#include "spectral/embedding.h"

namespace {

using namespace specpart;

graph::Hypergraph make_netlist(std::size_t modules) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 10;
  cfg.seed = 1234;
  return graph::generate_netlist(cfg);
}

core::VectorInstance make_vectors(const graph::Hypergraph& h, std::size_t d) {
  const graph::Graph g =
      model::clique_expand(h, model::NetModel::kPartitioningSpecific);
  spectral::EmbeddingOptions eo;
  eo.count = d;
  const spectral::EigenBasis basis = spectral::compute_eigenbasis(g, eo);
  return core::build_scaled_instance(basis, core::CoordScaling::kSqrtGap,
                                     core::default_h(basis));
}

void BM_MeloOrderingExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Hypergraph h = make_netlist(n);
  const core::VectorInstance inst = make_vectors(h, 10);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::melo_order_vectors(inst, core::MeloOrderingOptions{}));
  state.SetLabel("n=" + std::to_string(n) + " d=10 exact");
}
BENCHMARK(BM_MeloOrderingExact)->Arg(500)->Arg(1500)->Arg(3000)->Unit(
    benchmark::kMillisecond);

void BM_MeloOrderingExactThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const graph::Hypergraph h = make_netlist(n);
  const core::VectorInstance inst = make_vectors(h, 10);
  core::MeloOrderingOptions opts;
  opts.parallel = ParallelConfig::with_threads(threads);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::melo_order_vectors(inst, opts));
  state.SetLabel("n=" + std::to_string(n) + " d=10 threads:" +
                 std::to_string(threads));
}
BENCHMARK(BM_MeloOrderingExactThreaded)
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({5000, 4})
    ->Args({5000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_DprpSplitThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const graph::Hypergraph h = make_netlist(n);
  core::MeloOptions m;
  const auto runs = core::melo_orderings(h, m);
  spectral::DprpOptions opts;
  opts.k = 10;
  opts.parallel = ParallelConfig::with_threads(threads);
  for (auto _ : state)
    benchmark::DoNotOptimize(spectral::dprp_split(h, runs[0].ordering, opts));
  state.SetLabel("n=" + std::to_string(n) + " k=10 threads:" +
                 std::to_string(threads));
}
BENCHMARK(BM_DprpSplitThreaded)
    ->Args({1500, 1})
    ->Args({1500, 8})
    ->Unit(benchmark::kMillisecond);

void BM_DprpSplit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const graph::Hypergraph h = make_netlist(n);
  core::MeloOptions m;
  const auto runs = core::melo_orderings(h, m);
  spectral::DprpOptions opts;
  opts.k = k;
  for (auto _ : state)
    benchmark::DoNotOptimize(spectral::dprp_split(h, runs[0].ordering, opts));
  state.SetLabel("n=" + std::to_string(n) + " k=" + std::to_string(k));
}
BENCHMARK(BM_DprpSplit)
    ->Args({500, 4})
    ->Args({1500, 4})
    ->Args({1500, 10})
    ->Unit(benchmark::kMillisecond);

void BM_FmBipartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Hypergraph h = make_netlist(n);
  part::FmOptions opts;
  opts.num_starts = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(part::fm_bipartition(h, opts));
  state.SetLabel("n=" + std::to_string(n) + " 1 start");
}
BENCHMARK(BM_FmBipartition)->Arg(500)->Arg(1500)->Arg(3000)->Unit(
    benchmark::kMillisecond);

void BM_CliqueExpand(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Hypergraph h = make_netlist(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        model::clique_expand(h, model::NetModel::kPartitioningSpecific));
}
BENCHMARK(BM_CliqueExpand)->Arg(1500)->Arg(6000)->Unit(
    benchmark::kMillisecond);

void BM_AssemblySeedPath(benchmark::State& state) {
  // The pre-refactor pins -> edges -> triplets -> sorted-CSR path, kept as
  // a local replica (bench/seed_assembly.h); the baseline the fused
  // assembler is measured against.
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Hypergraph h = make_netlist(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(bench::seed_clique_laplacian(
        h, model::NetModel::kPartitioningSpecific));
  state.SetLabel("n=" + std::to_string(n) + " seed triplet path");
}
BENCHMARK(BM_AssemblySeedPath)->Arg(1500)->Arg(6000)->Unit(
    benchmark::kMillisecond);

void BM_AssemblyFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Hypergraph h = make_netlist(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(model::build_clique_laplacian(
        h, model::NetModel::kPartitioningSpecific));
  state.SetLabel("n=" + std::to_string(n) + " fused cold build");
}
BENCHMARK(BM_AssemblyFused)->Arg(1500)->Arg(6000)->Unit(
    benchmark::kMillisecond);

void BM_AssemblyFusedThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const graph::Hypergraph h = make_netlist(n);
  model::ModelBuildOptions opts;
  opts.parallel = ParallelConfig::with_threads(threads);
  for (auto _ : state)
    benchmark::DoNotOptimize(model::build_clique_laplacian(
        h, model::NetModel::kPartitioningSpecific, opts));
  state.SetLabel("n=" + std::to_string(n) + " fused threads:" +
                 std::to_string(threads));
}
BENCHMARK(BM_AssemblyFusedThreaded)
    ->Args({6000, 1})
    ->Args({6000, 2})
    ->Args({6000, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
