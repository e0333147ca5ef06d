// Microbenchmarks for the partitioning service layer (google-benchmark):
// cold vs warm request execution (what the embedding cache buys), queue
// round-trip throughput across worker counts, netlist fingerprinting cost,
// and wire-protocol serialization.
#include <benchmark/benchmark.h>

#include <future>
#include <sstream>
#include <vector>

#include "graph/generator.h"
#include "model/clique_models.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "service/service.h"

namespace {

using namespace specpart;

graph::Hypergraph make_netlist(std::size_t modules, std::uint64_t seed = 1234) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 10;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

service::PartitionRequest make_request(std::size_t modules,
                                       std::uint64_t seed = 1234) {
  service::PartitionRequest req;
  req.graph = make_netlist(modules, seed);
  req.pipeline.num_eigenvectors = 10;
  return req;
}

void BM_ServeCold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const service::PartitionRequest req = make_request(n);
  service::ServiceOptions opts;
  opts.cache.max_bytes = 0;  // every execution solves from scratch
  service::PartitionService svc(opts);
  for (auto _ : state) benchmark::DoNotOptimize(svc.execute(req));
  state.SetLabel("n=" + std::to_string(n) + " cache off");
}
BENCHMARK(BM_ServeCold)->Arg(300)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_ServeWarm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const service::PartitionRequest req = make_request(n);
  service::PartitionService svc;
  svc.execute(req);  // populate the cache
  for (auto _ : state) benchmark::DoNotOptimize(svc.execute(req));
  state.SetLabel("n=" + std::to_string(n) + " cache hit");
}
BENCHMARK(BM_ServeWarm)->Arg(300)->Arg(1000)->Unit(benchmark::kMillisecond);

/// Queue round-trip throughput: a warm batch of requests over a handful of
/// graphs, submitted through the bounded queue and drained. range(1) is
/// the worker count.
void BM_QueueThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  std::vector<service::PartitionRequest> batch;
  for (std::size_t i = 0; i < 16; ++i)
    batch.push_back(make_request(n, 1234 + i % 4));

  service::ServiceOptions opts;
  opts.num_workers = workers;
  opts.parallel = ParallelConfig::with_threads(1);
  service::PartitionService svc(opts);
  for (const auto& req : batch) svc.execute(req);  // warm the cache

  for (auto _ : state) {
    std::vector<std::future<service::PartitionResponse>> futs;
    futs.reserve(batch.size());
    for (const auto& req : batch) futs.push_back(svc.submit(req));
    for (auto& fut : futs) benchmark::DoNotOptimize(fut.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
  state.SetLabel("n=" + std::to_string(n) + " workers=" +
                 std::to_string(workers) + " warm");
}
BENCHMARK(BM_QueueThroughput)
    ->Args({300, 1})
    ->Args({300, 4})
    ->Unit(benchmark::kMillisecond);

void BM_NetlistKeyFingerprint(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Hypergraph h = make_netlist(n);
  const spectral::EmbeddingOptions eopts;
  for (auto _ : state)
    benchmark::DoNotOptimize(service::EmbeddingCache::netlist_key(
        h, model::NetModel::kPartitioningSpecific, 0, eopts, 16));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.num_pins()));
  state.SetLabel("n=" + std::to_string(n) + " pins=" +
                 std::to_string(h.num_pins()));
}
BENCHMARK(BM_NetlistKeyFingerprint)->Arg(1000)->Arg(5000)->Unit(
    benchmark::kMicrosecond);

void BM_WireRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const service::PartitionRequest req = make_request(n);
  for (auto _ : state) {
    std::ostringstream out;
    service::write_request(req, out);
    std::istringstream in(out.str());
    benchmark::DoNotOptimize(service::read_request(in));
  }
  state.SetLabel("n=" + std::to_string(n));
}
BENCHMARK(BM_WireRoundTrip)->Arg(1000)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
