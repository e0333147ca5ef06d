// Tests for the partitioning service layer: content-addressed embedding
// cache (hits, prefix reuse, LRU eviction), job-queue admission control,
// serving metrics, the wire protocol, and the serving determinism
// contract (byte-identical responses cold, cached, and at any kernel
// thread count).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "model/assembly.h"
#include "model/clique_models.h"
#include "service/cache.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/hashing.h"
#include "util/simd.h"
#include "util/stringutil.h"

namespace specpart::service {
namespace {

graph::Hypergraph small_netlist(std::uint64_t seed = 7,
                                std::size_t modules = 90) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 3;
  cfg.num_clusters = 4;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

PartitionRequest make_request(std::uint64_t graph_seed = 7,
                              std::size_t d = 8) {
  PartitionRequest req;
  req.id = "t";
  req.graph = small_netlist(graph_seed);
  req.pipeline.num_eigenvectors = d;
  return req;
}

std::string wire(const PartitionResponse& resp) {
  std::ostringstream out;
  write_response(resp, out);
  return out.str();
}

/// The cache key the service computes for `h` under `opts` (default net
/// model, no net-size filter).
Fingerprint key_of(const graph::Hypergraph& h,
                   const spectral::EmbeddingOptions& opts,
                   std::size_t solve_count = 16) {
  return EmbeddingCache::netlist_key(
      h, model::NetModel::kPartitioningSpecific, 0, opts, solve_count);
}

bool has_stage(const Diagnostics& diag, const std::string& name) {
  for (const StageStats& s : diag.stages())
    if (s.name == name) return true;
  return false;
}

void expect_same_basis(const spectral::EigenBasis& a,
                       const spectral::EigenBasis& b) {
  ASSERT_EQ(a.dimension(), b.dimension());
  ASSERT_EQ(a.n, b.n);
  for (std::size_t j = 0; j < a.dimension(); ++j) {
    EXPECT_EQ(a.values[j], b.values[j]);
    for (std::size_t i = 0; i < a.n; ++i)
      EXPECT_EQ(a.vectors.at(i, j), b.vectors.at(i, j));
  }
}

TEST(Hashing, DeterministicOrderSensitiveDigest) {
  Hasher a, b, c;
  a.mix_u64(1);
  a.mix_u64(2);
  a.mix_string("x");
  b.mix_u64(1);
  b.mix_u64(2);
  b.mix_string("x");
  c.mix_u64(2);
  c.mix_u64(1);
  c.mix_string("x");
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_EQ(a.digest().hex().size(), 32u);

  Hasher d, e;
  d.mix_double(1.0);
  e.mix_double(-1.0);
  EXPECT_NE(d.digest(), e.digest());
}

TEST(Cache, QuantizedCountRoundsUp) {
  EmbeddingCacheOptions opts;
  opts.dim_quantum = 8;
  EmbeddingCache cache(opts);
  EXPECT_EQ(cache.quantized_count(1), 8u);
  EXPECT_EQ(cache.quantized_count(8), 8u);
  EXPECT_EQ(cache.quantized_count(10), 16u);
  EXPECT_EQ(cache.quantized_count(16), 16u);
}

TEST(Cache, KeyIgnoresUnrelatedOptionsButSeesGraphAndSolver) {
  const graph::Hypergraph h = small_netlist();
  spectral::EmbeddingOptions e;
  const Fingerprint base = key_of(h, e);
  // Content addressing: a separately built identical netlist hits.
  EXPECT_EQ(base, key_of(small_netlist(), e));
  EXPECT_NE(base, key_of(small_netlist(11), e));
  EXPECT_NE(base, key_of(h, e, 24));
  spectral::EmbeddingOptions seeded = e;
  seeded.seed ^= 1;
  EXPECT_NE(base, key_of(h, seeded));
  // The net model is content too, keyed without expanding anything.
  EXPECT_NE(base,
            EmbeddingCache::netlist_key(h, model::NetModel::kFrankle, 0, e, 16));
  // Threading is a how, not a what: it must not change the content key.
  spectral::EmbeddingOptions threaded = e;
  threaded.parallel = ParallelConfig::with_threads(8);
  EXPECT_EQ(base, key_of(h, threaded));
}

TEST(Cache, NetlistKeyGoldenValues) {
  // Pinned digests of one fixed netlist under the default options and
  // under each non-default solve token the wire can carry. A changed key
  // orphans every stored tier-2 file, so any change to what netlist_key
  // mixes must come with a deliberate update of these values.
  const graph::Hypergraph h(
      8, {{0, 1, 2}, {2, 3}, {3, 4, 5, 6}, {6, 7}, {7, 0, 4}, {1, 5}},
      {1.0, 2.0, 1.0, 0.5, 1.0, 3.0});
  const auto key = [&](const core::PipelineConfig& p) {
    return key_of(h, p.embedding_options()).hex();
  };
  const core::PipelineConfig base;
  EXPECT_EQ(key(base), "c95f591f8c8b77a0715219f01d681329");
  core::PipelineConfig multilevel = base;
  multilevel.solver.strategy = core::SolverStrategy::kMultilevel;
  EXPECT_EQ(key(multilevel), "de83a664c6ee8612b7cb57a103a8f157");
  core::PipelineConfig normalized = base;
  normalized.objective = core::ObjectiveModel::kNormalizedSymmetric;
  EXPECT_EQ(key(normalized), "469e0c0945d2bdd2d735b77ba10f898e");
}

TEST(Service, ColdResponseGoldenDigests) {
  // Pinned digests of one cold k=2, d=8 response under the default
  // options and under each non-default solve token the wire can carry.
  // At 700 modules the flat path runs Lanczos (above the dense threshold)
  // and the V-cycle builds at least one level above its floor. A stored
  // basis is served as if computed now, so any change to solver
  // arithmetic that moves these bytes must come with a deliberate update
  // of these values. The response carries the split, not the basis: the
  // two unnormalized solves reach the same split, hence one digest
  // (Cache.ColdBasisGoldenDigests pins the bases themselves).
  PartitionRequest req = make_request();
  req.graph = small_netlist(7, 700);
  const auto digest = [](const PartitionRequest& r) {
    PartitionService svc;
    Hasher h;
    h.mix_string(wire(svc.execute(r)));
    return h.digest().hex();
  };
  EXPECT_EQ(digest(req), "debec5f298c71ce1b01a9e2ddd05bd15");
  PartitionRequest multilevel = req;
  multilevel.pipeline.solver.strategy = core::SolverStrategy::kMultilevel;
  EXPECT_EQ(digest(multilevel), "debec5f298c71ce1b01a9e2ddd05bd15");
  PartitionRequest normalized = req;
  normalized.pipeline.objective = core::ObjectiveModel::kNormalizedSymmetric;
  EXPECT_EQ(digest(normalized), "7cb9bdf24ff0c0d41bbd22f48531e462");
}

TEST(Cache, ColdBasisGoldenDigests) {
  // Pinned digests of the cold eigenbasis, values and vectors bit for bit,
  // of two fixed netlists above the dense threshold under each
  // default-reachable solve: flat or multilevel, unnormalized or
  // normalized. Flat Lanczos is pinned on the serial lane and on the
  // threaded lane the service's automatic thread count runs (every count
  // >= 2 gives the same bits); the V-cycle gives one set of bits at any
  // thread count. The n=700 netlist coarsens once; the n=2000 one several
  // times, so its rows also pin refinement on intermediate levels, at an
  // 18-wide (count 9) and a 32-wide (count 16) panel. The response digests
  // above see only the split, so an arithmetic change that keeps the split
  // passes them and fails here. Cached and stored bases are served as if
  // computed now: a change that moves these values must come with a
  // deliberate update of them.
  const auto digest = [](const model::CliqueModel& cm,
                         const core::PipelineConfig& p, std::size_t threads,
                         std::size_t count) {
    spectral::EmbeddingOptions e = p.embedding_options();
    e.count = count;
    e.parallel = ParallelConfig::with_threads(threads);
    Diagnostics diag;
    const spectral::EigenBasis basis = spectral::compute_eigenbasis(
        cm.operator_matrix(e.objective), e, &diag);
    // No fallback: each row pins the solve it names (a V-cycle row that
    // fell back to flat Lanczos would pin nothing of the V-cycle).
    EXPECT_EQ(diag.total_fallbacks(), 0u);
    const linalg::DenseMatrix& v = basis.vectors;
    Hasher hs;
    hs.mix_span(basis.values);
    hs.mix_size(v.rows());
    hs.mix_span(std::vector<double>(v.data(), v.data() + v.rows() * v.cols()));
    return hs.digest().hex();
  };
  core::PipelineConfig flat;
  core::PipelineConfig multilevel;
  multilevel.solver.strategy = core::SolverStrategy::kMultilevel;
  core::PipelineConfig flat_normalized;
  flat_normalized.objective = core::ObjectiveModel::kNormalizedSymmetric;
  core::PipelineConfig multilevel_normalized = multilevel;
  multilevel_normalized.objective = core::ObjectiveModel::kNormalizedSymmetric;

  const graph::Hypergraph h700 = small_netlist(7, 700);
  const model::CliqueModel small(h700, model::NetModel::kPartitioningSpecific);
  EXPECT_EQ(digest(small, flat, 1, 9), "89a72b877914c1c489a375deb2cd3482");
  EXPECT_EQ(digest(small, flat, 2, 9), "36f9f57c4f4cab5a2cd06b52fb36968f");
  EXPECT_EQ(digest(small, multilevel, 1, 9),
            "e9c6dc1eb31e04126db4ecc298298f12");
  EXPECT_EQ(digest(small, flat_normalized, 1, 9),
            "29c4c2e08322a853be5123ae23753f44");
  EXPECT_EQ(digest(small, flat_normalized, 2, 9),
            "8024a6ea72bccdd4d9317377d5d0fb9e");
  EXPECT_EQ(digest(small, multilevel_normalized, 1, 9),
            "7df4b4181ce53917cb3d1532e7762221");

  const graph::Hypergraph h2000 = small_netlist(7, 2000);
  const model::CliqueModel large(h2000, model::NetModel::kPartitioningSpecific);
  EXPECT_EQ(digest(large, flat, 1, 9), "ed9ace4e8834d99d0d0b035936e50e8d");
  EXPECT_EQ(digest(large, flat, 2, 9), "42af8579615654bf7616b7f99b3e2a88");
  EXPECT_EQ(digest(large, multilevel, 1, 9),
            "13c97f62ccea93a7a9b7d6d6266b10b5");
  EXPECT_EQ(digest(large, multilevel_normalized, 1, 9),
            "cfc1c5f82ad6470ce5da0995586bacd3");
  EXPECT_EQ(digest(large, multilevel, 1, 16),
            "cb46e85e71f8a6f1d44653277fc14ae5");
}

TEST(Cache, SolverStrategiesLiveInDisjointKeyDomains) {
  // The solve strategy changes the numerical content of the basis (the
  // V-cycle converges to its own acceptance bound, not the flat chain's),
  // so flat- and multilevel-produced embeddings must never alias.
  const graph::Hypergraph h = small_netlist();
  spectral::EmbeddingOptions e;
  spectral::EmbeddingOptions ml = e;
  ml.solver.strategy = linalg::SolverStrategy::kMultilevel;
  EXPECT_NE(key_of(h, e), key_of(h, ml));

  // End to end: a cache warmed by a flat request must miss when the same
  // netlist arrives with strategy=multilevel.
  PartitionService svc;
  PartitionRequest req = make_request();
  const PartitionResponse flat_resp = svc.execute(req);  // warms the cache
  req.pipeline.solver.strategy = core::SolverStrategy::kMultilevel;
  const PartitionResponse ml_resp = svc.execute(req);
  EXPECT_EQ(flat_resp.status, "ok");
  EXPECT_EQ(ml_resp.status, "ok");

  const EmbeddingCacheStats s = svc.cache_stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(Cache, RepeatedSolveHitsAndSkipsEigensolve) {
  const graph::Hypergraph h = small_netlist();
  const model::CliqueModel cm(h, model::NetModel::kPartitioningSpecific);
  spectral::EmbeddingOptions e;
  e.count = 8;

  EmbeddingCache cache;
  Diagnostics cold, warm;
  const spectral::EigenBasis b1 = cache.compute(cm, e, &cold, nullptr);
  const spectral::EigenBasis b2 = cache.compute(cm, e, &warm, nullptr);

  EXPECT_TRUE(has_stage(cold, "eigensolve"));
  EXPECT_FALSE(has_stage(cold, "embedding_cache_hit"));
  EXPECT_TRUE(has_stage(warm, "embedding_cache_hit"));
  EXPECT_FALSE(has_stage(warm, "eigensolve"));

  const EmbeddingCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  expect_same_basis(b1, b2);
}

TEST(Cache, PrefixReuseServesSmallerDFromOneEntry) {
  const graph::Hypergraph h = small_netlist();
  const model::CliqueModel cm(h, model::NetModel::kPartitioningSpecific);
  spectral::EmbeddingOptions e10;
  e10.count = 10;  // quantized to 16
  spectral::EmbeddingOptions e12 = e10;
  e12.count = 12;  // same bucket

  EmbeddingCache cache;
  const spectral::EigenBasis b10 = cache.compute(cm, e10, nullptr, nullptr);
  Diagnostics warm;
  const spectral::EigenBasis b12 = cache.compute(cm, e12, &warm, nullptr);

  EXPECT_EQ(b10.dimension(), 10u);
  EXPECT_EQ(b12.dimension(), 12u);
  EXPECT_FALSE(has_stage(warm, "eigensolve"));

  const EmbeddingCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.prefix_hits, 1u);
  EXPECT_EQ(s.entries, 1u);

  // The smaller basis is the exact leading prefix of the larger one.
  for (std::size_t j = 0; j < 10; ++j) {
    EXPECT_EQ(b10.values[j], b12.values[j]);
    for (std::size_t i = 0; i < b10.n; ++i)
      EXPECT_EQ(b10.vectors.at(i, j), b12.vectors.at(i, j));
  }
}

TEST(Cache, LruEvictionUnderByteBudget) {
  spectral::EmbeddingOptions e;
  e.count = 8;
  const graph::Hypergraph h1 = small_netlist(1), h2 = small_netlist(2),
                         h3 = small_netlist(3);
  const model::CliqueModel m1(h1, model::NetModel::kPartitioningSpecific);
  const model::CliqueModel m2(h2, model::NetModel::kPartitioningSpecific);
  const model::CliqueModel m3(h3, model::NetModel::kPartitioningSpecific);

  // Learn one entry's footprint, then budget for two.
  EmbeddingCache probe;
  probe.compute(m1, e, nullptr, nullptr);
  const std::size_t entry_bytes = probe.stats().bytes;
  ASSERT_GT(entry_bytes, 0u);

  EmbeddingCacheOptions opts;
  opts.max_bytes = 2 * entry_bytes + entry_bytes / 2;
  EmbeddingCache cache(opts);
  cache.compute(m1, e, nullptr, nullptr);
  cache.compute(m2, e, nullptr, nullptr);
  cache.compute(m3, e, nullptr, nullptr);  // evicts m1 (LRU)

  EmbeddingCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, opts.max_bytes);

  // m3 and m2 survived; m1 must miss again.
  cache.compute(m3, e, nullptr, nullptr);
  cache.compute(m2, e, nullptr, nullptr);
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.compute(m1, e, nullptr, nullptr);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(Cache, ZeroBudgetStoresNothingAndReturnsTheCachingPathsBits) {
  // Above the dense threshold, so a solve for 12 pairs and one for the
  // quantized 16 differ in their bits.
  const graph::Hypergraph h = small_netlist(10, 400);
  const model::CliqueModel cm(h, model::NetModel::kPartitioningSpecific);
  spectral::EmbeddingOptions e;
  e.count = 12;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("specpart_zero_budget_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  EmbeddingCacheOptions opts;
  opts.max_bytes = 0;
  opts.cache_dir = dir;  // no tier either: a zero budget stores nothing
  EmbeddingCache zero(opts);
  EXPECT_FALSE(zero.disk_enabled());
  const spectral::EigenBasis b1 = zero.compute(cm, e, nullptr, nullptr);
  const spectral::EigenBasis b2 = zero.compute(cm, e, nullptr, nullptr);
  EXPECT_FALSE(std::filesystem::exists(dir));
  const EmbeddingCacheStats s = zero.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.uncacheable, 2u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);

  // Both solves are the caching path's: the leading 12 columns of the
  // quantized 16-pair solve.
  EmbeddingCache caching;
  const spectral::EigenBasis cached = caching.compute(cm, e, nullptr, nullptr);
  EXPECT_EQ(cached.dimension(), 12u);
  expect_same_basis(b1, cached);
  expect_same_basis(b2, cached);
}

TEST(Cache, NetlistHitSkipsCliqueExpansionEntirely) {
  const graph::Hypergraph h = small_netlist();
  spectral::EmbeddingOptions e;
  e.count = 8;
  EmbeddingCache cache;

  model::CliqueModel cold_model(h, model::NetModel::kPartitioningSpecific);
  Diagnostics cold;
  const spectral::EigenBasis b1 =
      cache.compute(cold_model, e, &cold, nullptr);
  EXPECT_TRUE(has_stage(cold, "model"));
  EXPECT_TRUE(has_stage(cold, "eigensolve"));
  EXPECT_TRUE(cold_model.laplacian_built());

  model::CliqueModel warm_model(h, model::NetModel::kPartitioningSpecific);
  Diagnostics warm;
  const spectral::EigenBasis b2 =
      cache.compute(warm_model, e, &warm, nullptr);
  EXPECT_TRUE(has_stage(warm, "embedding_cache_hit"));
  EXPECT_FALSE(has_stage(warm, "eigensolve"));
  EXPECT_FALSE(has_stage(warm, "model"));
  // The hit never touched the model: no clique expansion, no Laplacian.
  EXPECT_FALSE(warm_model.laplacian_built());
  EXPECT_FALSE(warm_model.graph_built());

  expect_same_basis(b1, b2);
  const EmbeddingCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(Service, OversizedModelYieldsStructuredErrorNotOom) {
  ServiceOptions opts;
  opts.max_clique_pairs = 3;  // far below any real request
  PartitionService svc(opts);
  const PartitionResponse resp = svc.execute(make_request());
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.error.find("model_too_large"), std::string::npos);
  EXPECT_TRUE(resp.assignment.empty());
  EXPECT_EQ(svc.snapshot().responses_error, 1u);
}

TEST(Service, RepeatedRequestIsByteIdenticalAndHitsCache) {
  PartitionService svc;
  const PartitionRequest req = make_request();
  const PartitionResponse cold = svc.execute(req);
  const PartitionResponse cached = svc.execute(req);
  EXPECT_EQ(cold.status, "ok");
  EXPECT_EQ(wire(cold), wire(cached));

  const EmbeddingCacheStats s = svc.cache_stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);

  const MetricsSnapshot m = svc.snapshot();
  EXPECT_EQ(m.requests_total, 2u);
  EXPECT_EQ(m.responses_ok, 2u);
  EXPECT_EQ(m.latency.total, 2u);
}

TEST(Service, ResponseBytesDoNotDependOnTheCacheBudget) {
  // A zero budget stores nothing, but its requests take the caching
  // path all the same, quantized solve included.
  ServiceOptions zero;
  zero.cache.max_bytes = 0;
  PartitionService svc0(zero);
  PartitionService svc;
  for (const std::size_t d : {10u, 12u}) {
    PartitionRequest req = make_request();
    req.graph = small_netlist(10, 400);
    req.k = 2;
    req.pipeline.num_eigenvectors = d;
    const PartitionResponse resp = svc.execute(req);
    EXPECT_EQ(resp.status, "ok");
    EXPECT_EQ(wire(svc0.execute(req)), wire(resp)) << "d = " << d;
  }
  EXPECT_EQ(svc0.cache_stats().entries, 0u);
  EXPECT_EQ(svc0.cache_stats().misses, 2u);
}

TEST(Service, ByteIdenticalAcrossKernelThreadCounts) {
  // A graph above the dense threshold, so the Lanczos kernels (the
  // parallel code path) actually run. The fixed-block reduction contract
  // plus the server-side thread override must make the serialized
  // response independent of the kernel thread count.
  PartitionRequest req = make_request();
  req.graph = small_netlist(7, 400);

  ServiceOptions serial;
  serial.parallel = ParallelConfig::with_threads(1);
  ServiceOptions threaded;
  threaded.parallel = ParallelConfig::with_threads(8);

  PartitionService svc1(serial);
  PartitionService svc8(threaded);
  const std::string cold1 = wire(svc1.execute(req));
  const std::string warm1 = wire(svc1.execute(req));
  const std::string cold8 = wire(svc8.execute(req));
  const std::string warm8 = wire(svc8.execute(req));
  EXPECT_EQ(cold1, warm1);
  EXPECT_EQ(cold1, cold8);
  EXPECT_EQ(cold1, warm8);
}

TEST(Service, MultiwayRequestsServeFromTheSameEmbedding) {
  // k and balance are not part of the cache key: a k=4 request after a
  // k=2 request on the same graph reuses the embedding.
  PartitionService svc;
  PartitionRequest req = make_request();
  const PartitionResponse r2 = svc.execute(req);
  req.k = 4;
  const PartitionResponse r4 = svc.execute(req);
  EXPECT_EQ(r2.status, "ok");
  EXPECT_EQ(r4.status, "ok");
  EXPECT_EQ(r4.assignment.size(), req.graph.num_nodes());
  EXPECT_EQ(svc.cache_stats().hits, 1u);
}

TEST(Service, InvalidRequestYieldsErrorResponse) {
  PartitionService svc;
  PartitionRequest req = make_request();
  req.k = static_cast<std::uint32_t>(req.graph.num_nodes() + 1);
  const PartitionResponse resp = svc.execute(req);
  EXPECT_EQ(resp.status, "error");
  EXPECT_FALSE(resp.error.empty());
  EXPECT_TRUE(resp.assignment.empty());
  EXPECT_EQ(svc.snapshot().responses_error, 1u);
}

TEST(Service, TrySubmitRejectsWhenQueueIsFullWithoutDeadlock) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 1;
  PartitionService svc(opts);

  // Fire requests far faster than one worker can drain a capacity-1
  // queue: some must be rejected, every accepted one must complete.
  std::vector<std::future<PartitionResponse>> accepted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    std::future<PartitionResponse> fut;
    if (svc.try_submit(make_request(), fut))
      accepted.push_back(std::move(fut));
    else
      ++rejected;
  }
  EXPECT_GT(rejected, 0u);
  ASSERT_FALSE(accepted.empty());
  for (auto& fut : accepted) EXPECT_EQ(fut.get().status, "ok");

  const MetricsSnapshot m = svc.snapshot();
  EXPECT_EQ(m.rejected, rejected);
  EXPECT_EQ(m.requests_total, accepted.size());
  EXPECT_LE(m.queue_peak, opts.queue_capacity);
}

TEST(Service, BlockingSubmitExertsBackpressureWithoutDeadlock) {
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 3;
  PartitionService svc(opts);

  // Several producers push through a tiny queue; submit() must block
  // instead of rejecting, and everything must complete.
  std::vector<std::thread> producers;
  std::vector<std::future<PartitionResponse>> futures(12);
  for (std::size_t p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < 4; ++i)
        futures[4 * p + i] = svc.submit(make_request());
    });
  }
  for (std::thread& t : producers) t.join();
  for (auto& fut : futures) EXPECT_EQ(fut.get().status, "ok");

  const MetricsSnapshot m = svc.snapshot();
  EXPECT_EQ(m.requests_total, 12u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_LE(m.queue_peak, opts.queue_capacity);
}

TEST(Service, SubmitAfterShutdownThrows) {
  PartitionService svc;
  svc.shutdown();
  EXPECT_THROW(svc.submit(make_request()), Error);
}

TEST(Protocol, RequestRoundTripIsByteStable) {
  PartitionRequest req = make_request();
  req.id = "roundtrip";
  req.k = 4;
  req.balance = 0.4;
  req.pipeline.scaling = core::CoordScaling::kGap;
  req.pipeline.selection = core::SelectionRule::kProjection;
  req.pipeline.seed = 99;

  std::ostringstream first;
  write_request(req, first);
  std::istringstream in(first.str());
  const std::optional<PartitionRequest> parsed = read_request(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, "roundtrip");
  EXPECT_EQ(parsed->k, 4u);
  EXPECT_EQ(parsed->pipeline.scaling, core::CoordScaling::kGap);
  EXPECT_EQ(parsed->pipeline.selection, core::SelectionRule::kProjection);
  EXPECT_EQ(parsed->graph.num_nodes(), req.graph.num_nodes());
  EXPECT_EQ(parsed->graph.num_nets(), req.graph.num_nets());

  std::ostringstream second;
  write_request(*parsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Protocol, ResponseRoundTripIsByteStable) {
  PartitionResponse resp;
  resp.id = "r1";
  resp.status = "ok";
  resp.k = 2;
  resp.cut = 13;
  resp.scaled_cost = 0.015625;
  resp.ratio_cut = 0.001953125;
  resp.eigenvectors_used = 8;
  resp.eigen_converged = true;
  resp.assignment = {0, 1, 1, 0, 1};

  std::ostringstream first;
  write_response(resp, first);
  std::istringstream in(first.str());
  const std::optional<PartitionResponse> parsed = read_response(in);
  ASSERT_TRUE(parsed.has_value());
  std::ostringstream second;
  write_response(*parsed, second);
  EXPECT_EQ(first.str(), second.str());

  PartitionResponse err;
  err.id = "r2";
  err.status = "error";
  err.error = "request k exceeds the vertex count";
  std::ostringstream efirst;
  write_response(err, efirst);
  std::istringstream ein(efirst.str());
  const std::optional<PartitionResponse> eparsed = read_response(ein);
  ASSERT_TRUE(eparsed.has_value());
  EXPECT_EQ(eparsed->error, err.error);
  std::ostringstream esecond;
  write_response(*eparsed, esecond);
  EXPECT_EQ(efirst.str(), esecond.str());
}

TEST(Protocol, MalformedInputThrows) {
  std::istringstream empty("");
  EXPECT_FALSE(read_request(empty).has_value());

  std::istringstream bad_verb("HELLO a=1\n");
  EXPECT_THROW(read_request(bad_verb), Error);

  std::istringstream unknown_field("REQUEST id=x bogus=1 graph_lines=0\nEND\n");
  EXPECT_THROW(read_request(unknown_field), Error);

  std::istringstream truncated("REQUEST id=x graph_lines=5\n1 2\n");
  EXPECT_THROW(read_request(truncated), Error);
}

TEST(Protocol, SolverFieldDefaultsToScalarAndRoundTrips) {
  // Requests serialize to the exact pre-solver-field bytes (absent field ==
  // scalar), so old clients and recorded wire traffic keep working; an
  // explicit solver=scalar from such a client parses to the same default.
  PartitionRequest req = make_request();
  std::ostringstream scalar_wire;
  write_request(req, scalar_wire);
  EXPECT_EQ(scalar_wire.str().find(" solver="), std::string::npos);
  std::istringstream scalar_in(scalar_wire.str());
  const std::optional<PartitionRequest> scalar_parsed =
      read_request(scalar_in);
  ASSERT_TRUE(scalar_parsed.has_value());
  EXPECT_EQ(scalar_parsed->pipeline.solver.backend,
            core::SolverBackend::kScalar);

  std::string explicit_wire = scalar_wire.str();
  explicit_wire.insert(explicit_wire.find(" graph_lines="), " solver=scalar");
  std::istringstream explicit_in(explicit_wire);
  const std::optional<PartitionRequest> explicit_parsed =
      read_request(explicit_in);
  ASSERT_TRUE(explicit_parsed.has_value());
  EXPECT_EQ(explicit_parsed->pipeline.solver.backend,
            core::SolverBackend::kScalar);
  std::ostringstream reserialized;
  write_request(*explicit_parsed, reserialized);
  EXPECT_EQ(reserialized.str(), scalar_wire.str());
}

TEST(Protocol, RetiredLazyFieldsParseAndAreDropped) {
  // Frames from clients that predate the removal of lazy ranking carry
  // lazy=0 and the two window sizes: they parse to the same request and
  // re-serialize without them. A malformed size is still an error.
  std::ostringstream current;
  write_request(make_request(), current);
  std::string legacy = current.str();
  legacy.insert(legacy.find(" graph_lines="),
                " lazy=0 lazy_window=32 lazy_rerank=64");
  std::istringstream legacy_in(legacy);
  const std::optional<PartitionRequest> parsed = read_request(legacy_in);
  ASSERT_TRUE(parsed.has_value());
  std::ostringstream reserialized;
  write_request(*parsed, reserialized);
  EXPECT_EQ(reserialized.str(), current.str());

  std::istringstream bad_size(
      "REQUEST id=x lazy_window=x graph_lines=0\nEND\n");
  EXPECT_THROW(read_request(bad_size), Error);
}

TEST(Protocol, UnknownEnumTokenIsStructuredBadRequest) {
  // One rule for every enum field: a typo is a bad_request naming the
  // token, whichever field carries it. solver=block names the retired
  // block Lanczos backend and lazy=1 the retired lazy ranking; they get the
  // same answer.
  const std::pair<std::string, std::string> cases[] = {
      {"scaling", "bogus"},  {"selection", "bogus"}, {"net_model", "bogus"},
      {"solver", "bogus"},   {"solver", "block"},    {"strategy", "bogus"},
      {"objective", "bogus"}, {"lazy", "1"}};
  for (const auto& [field, token] : cases) {
    std::istringstream bad("REQUEST id=x " + field + "=" + token +
                           " graph_lines=0\nEND\n");
    try {
      read_request(bad);
      ADD_FAILURE() << field << "=" << token << " must be rejected";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_TRUE(starts_with(msg, "bad_request: ")) << field << ": " << msg;
      EXPECT_NE(msg.find("'" + token + "'"), std::string::npos) << msg;
    }
  }
}

TEST(Protocol, StrategyFieldDefaultsToFlatAndRoundTrips) {
  // Flat requests serialize to the exact pre-strategy-field bytes (absent
  // field == flat) so recorded wire traffic keeps working; multilevel
  // requests carry the field and round-trip byte-stably.
  PartitionRequest req = make_request();
  std::ostringstream flat_wire;
  write_request(req, flat_wire);
  EXPECT_EQ(flat_wire.str().find(" strategy="), std::string::npos);
  std::istringstream flat_in(flat_wire.str());
  const std::optional<PartitionRequest> flat_parsed = read_request(flat_in);
  ASSERT_TRUE(flat_parsed.has_value());
  EXPECT_EQ(flat_parsed->pipeline.solver.strategy,
            core::SolverStrategy::kFlat);

  req.pipeline.solver.strategy = core::SolverStrategy::kMultilevel;
  std::ostringstream first;
  write_request(req, first);
  EXPECT_NE(first.str().find(" strategy=multilevel"), std::string::npos);
  std::istringstream in(first.str());
  const std::optional<PartitionRequest> parsed = read_request(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->pipeline.solver.strategy,
            core::SolverStrategy::kMultilevel);
  std::ostringstream second;
  write_request(*parsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Protocol, AbsurdAnnouncedPayloadIsRejectedBeforeReading) {
  // The header alone must not make the server loop over terabytes: an
  // announced graph_lines past the limit fails before any payload read.
  ProtocolLimits limits;
  limits.max_graph_lines = 100;
  std::istringstream in("REQUEST id=x graph_lines=101\n");
  try {
    read_request(in, limits);
    FAIL() << "oversized announcement must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad_request"), std::string::npos)
        << e.what();
  }
  // At the limit, the (truncated) payload is at least attempted.
  std::istringstream ok_header("REQUEST id=x graph_lines=100\n");
  try {
    read_request(ok_header, limits);
    FAIL() << "truncated payload must still throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("graph_lines=100 exceeds"),
              std::string::npos);
  }
}

TEST(Protocol, OversizedStreamedPayloadIsRejectedMidRead) {
  ProtocolLimits limits;
  limits.max_payload_bytes = 64;
  std::ostringstream frame;
  frame << "REQUEST id=x graph_lines=4\n";
  frame << "2 4\n";
  for (int i = 0; i < 3; ++i)
    frame << std::string(40, '1') << "\n";  // blows the 64-byte budget
  frame << "END\n";
  std::istringstream in(frame.str());
  try {
    read_request(in, limits);
    FAIL() << "oversized payload must be rejected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad_request"), std::string::npos) << msg;
    EXPECT_NE(msg.find("64-byte limit"), std::string::npos) << msg;
  }
}

TEST(Protocol, HeaderDeclaringMoreNetsThanPayloadLinesIsBadRequest) {
  // Each declared net needs a payload line, so the bound is checked before
  // decoding; a header that fits still decodes.
  std::istringstream in("REQUEST id=x graph_lines=3\n3 4\n1 2\n3 4\nEND\n");
  try {
    read_request(in);
    FAIL() << "a header promising 3 nets in 2 net lines must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "bad_request: .hgr header declares 3 nets in a 3-line payload");
  }
  std::istringstream fits("REQUEST id=x graph_lines=3\n2 4\n1 2\n3 4\nEND\n");
  const std::optional<PartitionRequest> parsed = read_request(fits);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->graph.num_nets(), 2u);
}

/// The Error message `read` throws on `text`, or "" if it does not throw.
template <typename Read>
std::string error_of(Read read, const std::string& text) {
  std::istringstream in(text);
  try {
    read(in);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Protocol, RequestKAboveUint32IsBadRequestNotTruncated) {
  // 4294967298 = 2^32 + 2 used to parse as k=2.
  const auto read = [](std::istream& in) { return read_request(in); };
  EXPECT_EQ(error_of(read, "REQUEST id=x k=4294967298 graph_lines=0\nEND\n"),
            "bad_request: k=4294967298 exceeds the 32-bit limit 4294967295");
  std::istringstream at_limit(
      "REQUEST id=x k=4294967295 graph_lines=2\n1 2\n1 2\nEND\n");
  EXPECT_EQ(read_request(at_limit)->k, 4294967295u);
}

TEST(Protocol, ResponseKAboveUint32IsRejectedNotTruncated) {
  const auto read = [](std::istream& in) { return read_response(in); };
  EXPECT_EQ(error_of(read,
                     "RESPONSE id=r status=ok k=4294967296 n=1\n"
                     "ASSIGN 0\nEND\n"),
            "protocol: k=4294967296 exceeds the 32-bit limit 4294967295");
}

TEST(Protocol, AssignIdAboveUint32IsRejectedNotTruncated) {
  const auto read = [](std::istream& in) { return read_response(in); };
  EXPECT_EQ(error_of(read,
                     "RESPONSE id=r status=ok k=2 n=2\n"
                     "ASSIGN 1 4294967296\nEND\n"),
            "protocol: ASSIGN id=4294967296 exceeds the 32-bit limit "
            "4294967295");
  std::istringstream at_limit(
      "RESPONSE id=r status=ok k=2 n=2\nASSIGN 1 4294967295\nEND\n");
  EXPECT_EQ(read_response(at_limit)->assignment.back(), 4294967295u);
}

TEST(Protocol, AssignLineIsBoundedByItsCountNotTheLineCap) {
  // 20000 ten-digit ids make a 220 KB ASSIGN line, past kMaxLineBytes: the
  // header's n sets its cap, so large responses still parse.
  PartitionResponse resp;
  resp.id = "r";
  resp.k = 2;
  resp.assignment.assign(20000, 4000000000u);
  std::ostringstream frame;
  write_response(resp, frame);
  ASSERT_GT(frame.str().size(), kMaxLineBytes);
  std::istringstream in(frame.str());
  const std::optional<PartitionResponse> parsed = read_response(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->assignment, resp.assignment);
  // An ASSIGN line longer than any writer makes for its n is refused.
  const auto read = [](std::istream& s) { return read_response(s); };
  EXPECT_NE(error_of(read, "RESPONSE id=r status=ok k=2 n=1\nASSIGN" +
                               std::string(kMaxLineBytes + 12, ' ') +
                               "0\nEND\n")
                .find("line exceeds the 65547-byte limit"),
            std::string::npos);
}

/// A streambuf with no get area, like std::cin synced with stdio: every
/// byte comes through underflow and uflow.
class UnbufferedSource : public std::streambuf {
 public:
  explicit UnbufferedSource(std::string text) : text_(std::move(text)) {}
  std::size_t consumed() const { return pos_; }

 protected:
  int_type underflow() override {
    return pos_ < text_.size() ? traits_type::to_int_type(text_[pos_])
                               : traits_type::eof();
  }
  int_type uflow() override {
    const int_type c = underflow();
    if (c != traits_type::eof()) ++pos_;
    return c;
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
};

TEST(Protocol, UnbufferedStreamReadsTheSameFramesUnderTheSameCaps) {
  std::ostringstream frame;
  write_request(make_request(), frame);
  UnbufferedSource source(frame.str() + "\n" + frame.str());
  std::istream in(&source);
  for (int i = 0; i < 2; ++i) {
    const std::optional<PartitionRequest> parsed = read_request(in);
    ASSERT_TRUE(parsed.has_value());
    std::ostringstream again;
    write_request(*parsed, again);
    EXPECT_EQ(again.str(), frame.str());
  }
  EXPECT_FALSE(read_request(in).has_value());

  UnbufferedSource overlong(std::string(8 << 20, 'A'));
  std::istream long_in(&overlong);
  try {
    read_request(long_in);
    FAIL() << "an overlong line must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line exceeds the 65536-byte limit"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(overlong.consumed(), kMaxLineBytes);
}

TEST(Protocol, DefaultLimitsAdmitNormalRequests) {
  const PartitionRequest req = make_request();
  std::ostringstream frame;
  write_request(req, frame);
  std::istringstream in(frame.str());
  const std::optional<PartitionRequest> parsed = read_request(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->graph.num_nodes(), req.graph.num_nodes());
}

/// Runs one client script through the shared serving loop over `backend`
/// and returns the server's byte output.
std::string serve_on(StreamBackend& backend, const std::string& script,
                     const ProtocolLimits& limits = {}) {
  std::istringstream in(script);
  std::ostringstream out;
  serve_stream(backend, in, out, limits);
  return out.str();
}

/// serve_on over a fresh service.
std::string serve_script(const std::string& script,
                         const ProtocolLimits& limits = {}) {
  PartitionService svc;
  ServiceBackend backend(svc);
  return serve_on(backend, script, limits);
}

TEST(ServeStream, GarbageFrameGetsStructuredBadRequestThenCloses) {
  const std::string out = serve_script("FETCH /index.html\n");
  EXPECT_NE(out.find("status=error"), std::string::npos) << out;
  EXPECT_NE(out.find("error=bad_request: "), std::string::npos) << out;
  EXPECT_NE(out.find("unknown frame"), std::string::npos) << out;
  // The connection is poisoned after garbage: the loop said BYE.
  EXPECT_NE(out.find("BYE"), std::string::npos) << out;
}

TEST(ServeStream, TruncatedRequestGetsStructuredBadRequest) {
  const std::string out =
      serve_script("REQUEST id=x graph_lines=5\n1 2\n");
  EXPECT_NE(out.find("error=bad_request: "), std::string::npos) << out;
}

TEST(ServeStream, OversizedRequestGetsStructuredBadRequest) {
  ProtocolLimits limits;
  limits.max_graph_lines = 3;
  const std::string out =
      serve_script("REQUEST id=x graph_lines=4\n1 1\n1 2\n2 1\n1 2\nEND\n",
                   limits);
  EXPECT_NE(out.find("error=bad_request: "), std::string::npos) << out;
  EXPECT_NE(out.find("payload limit"), std::string::npos) << out;
}

/// serve_stream over `in` and a fresh service; returns the reply bytes and
/// leaves `in` where the loop stopped reading.
std::string serve_istream(std::istringstream& in,
                          const ProtocolLimits& limits = {}) {
  PartitionService svc;
  ServiceBackend backend(svc);
  std::ostringstream out;
  serve_stream(backend, in, out, limits);
  in.clear();
  return out.str();
}

TEST(ServeStream, OverlongLineIsRefusedBeforeItIsBuffered) {
  // 8 MiB with no newline: the reader stops at the line cap and answers
  // with a short error, instead of buffering (and echoing) the whole line.
  std::istringstream in(std::string(8 << 20, 'A'));
  const std::string reply = serve_istream(in);
  EXPECT_LT(reply.size(), 1024u) << reply.substr(0, 256);
  EXPECT_NE(reply.find("error=bad_request: "), std::string::npos) << reply;
  EXPECT_NE(reply.find("BYE\n"), std::string::npos) << reply;
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()), kMaxLineBytes);

  // The same cap holds for the END line after a payload.
  std::istringstream no_end("REQUEST id=x graph_lines=3\n2 4\n1 2\n3 4\n" +
                            std::string(8 << 20, 'E'));
  const std::string end_reply = serve_istream(no_end);
  EXPECT_LT(end_reply.size(), 1024u) << end_reply.substr(0, 256);
  EXPECT_NE(end_reply.find("error=bad_request: "), std::string::npos);
  EXPECT_LE(static_cast<std::size_t>(no_end.tellg()), 64 + kMaxLineBytes);

  // A line under the cap is read, but its error quotes only its start.
  std::istringstream garbage(std::string(60 << 10, 'G') + "\n");
  const std::string garbage_reply = serve_istream(garbage);
  EXPECT_LT(garbage_reply.size(), 1024u) << garbage_reply.substr(0, 256);
  EXPECT_NE(garbage_reply.find("unknown frame 'GGGG"), std::string::npos);
}

TEST(ServeStream, OverlongPayloadLineIsRefusedBeforeItIsBuffered) {
  // A 1 MiB payload line under a 64-byte payload limit fails on the
  // limit's own error, having read no more than the budget of it.
  ProtocolLimits limits;
  limits.max_payload_bytes = 64;
  const std::string header = "REQUEST id=x graph_lines=2\n";
  std::istringstream in(header + std::string(1 << 20, '1') + "\n1 2\nEND\n");
  const std::string reply = serve_istream(in, limits);
  EXPECT_NE(reply.find("error=bad_request: request payload exceeds the "
                       "64-byte limit"),
            std::string::npos)
      << reply.substr(0, 256);
  EXPECT_LT(reply.size(), 1024u);
  EXPECT_LE(static_cast<std::size_t>(in.tellg()),
            header.size() + limits.max_payload_bytes);
}

TEST(ServeStream, PayloadOfExactlyTheLimitIsServedOneByteMoreIsNot) {
  const PartitionRequest req = make_request();
  std::ostringstream frame;
  write_request(req, frame);
  const std::string text = frame.str();
  // The payload is everything between the header line and END.
  const std::size_t payload_bytes =
      text.size() - (text.find('\n') + 1) - std::string("END\n").size();
  PartitionService reference;
  const std::string served = wire(reference.execute(req));

  ProtocolLimits limits;
  limits.max_payload_bytes = payload_bytes;
  EXPECT_EQ(serve_script(text, limits), served + "BYE\n");
  // One byte short fails after the last line is read; two bytes short
  // fails inside it. Both are the limit's error.
  for (const std::size_t shortfall : {1, 2}) {
    limits.max_payload_bytes = payload_bytes - shortfall;
    const std::string reply = serve_script(text, limits);
    EXPECT_NE(reply.find(strprintf("error=bad_request: request payload "
                                   "exceeds the %zu-byte limit",
                                   limits.max_payload_bytes)),
              std::string::npos)
        << shortfall << ": " << reply;
  }
}

TEST(ServeStream, ValidFramesStillFlowAfterHardening) {
  const PartitionRequest req = make_request();
  std::ostringstream script;
  write_request(req, script);
  script << "PING\nQUIT\n";
  const std::string out = serve_script(script.str());
  PartitionService svc;
  std::ostringstream expected;
  write_response(svc.execute(req), expected);
  EXPECT_NE(out.find(expected.str()), std::string::npos);
  EXPECT_NE(out.find("PONG\n"), std::string::npos);
  EXPECT_NE(out.find("BYE\n"), std::string::npos);
}

constexpr bool kFaultsCompiled =
#ifdef SPECPART_FAULT_INJECTION
    true;
#else
    false;
#endif

TEST(ServeStream, FailedSolveAllocationIsAnErrorResponseAndServingGoesOn) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const PartitionRequest req = make_request();
  std::ostringstream frame;
  write_request(req, frame);
  PartitionService svc;
  ServiceBackend backend(svc);

  // The request's own response is the error; the connection carries on.
  fault::arm("service.solve_bad_alloc", 1);
  EXPECT_EQ(serve_on(backend, frame.str() + "PING\n"),
            "RESPONSE id=t status=error error=out_of_memory: the server "
            "could not allocate the solve\nEND\nPONG\nBYE\n");
  EXPECT_EQ(fault::triggered("service.solve_bad_alloc"), 1u);
  // The same service answers the same request afterwards.
  PartitionService reference;
  EXPECT_EQ(serve_on(backend, frame.str()), wire(reference.execute(req)) +
                                                "BYE\n");
}

TEST(ServeStream, FailedDecodeAllocationIsAnErrorResponseThenCloses) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const PartitionRequest req = make_request();
  std::ostringstream frame;
  write_request(req, frame);
  PartitionService svc;
  ServiceBackend backend(svc);

  // Like any frame that fails to parse, it closes the connection: the
  // PING behind it is not answered.
  fault::arm("service.decode_bad_alloc", 1);
  EXPECT_EQ(serve_on(backend, frame.str() + "PING\n"),
            "RESPONSE id=? status=error error=out_of_memory: the server "
            "could not allocate the request\nEND\nBYE\n");
  EXPECT_EQ(fault::triggered("service.decode_bad_alloc"), 1u);
  // The next connection is served.
  PartitionService reference;
  EXPECT_EQ(serve_on(backend, frame.str() + "PING\n"),
            wire(reference.execute(req)) + "PONG\nBYE\n");
}

TEST(Protocol, JsonMirrorsResponseFields) {
  PartitionService svc;
  const PartitionResponse resp = svc.execute(make_request());
  const std::string json = response_to_json(resp);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"cut\": "), std::string::npos);
  EXPECT_NE(json.find("\"assignment\": ["), std::string::npos);
}

TEST(Metrics, HistogramQuantilesBracketRecordedValues) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(0.010);  // 10ms
  for (int i = 0; i < 10; ++i) h.record(1.0);     // 1s tail
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.total, 110u);
  EXPECT_NEAR(s.mean(), (100 * 0.010 + 10 * 1.0) / 110.0, 1e-9);
  // p50 lands in the 10ms bucket, p99 in the 1s bucket; the log-spaced
  // buckets bound the error to one resolution step (2^(1/4)).
  EXPECT_GT(s.quantile(0.5), 0.010 / 1.2);
  EXPECT_LT(s.quantile(0.5), 0.010 * 1.2);
  EXPECT_GT(s.quantile(0.99), 1.0 / 1.2);
  EXPECT_LT(s.quantile(0.99), 1.0 * 1.2);
  // q = 0 estimates the minimum: the lower edge of the first occupied
  // bucket, which sits one resolution step below the 10ms samples.
  EXPECT_LE(s.quantile(0.0), 0.010);
  EXPECT_GT(s.quantile(0.0), 0.0);

  for (std::size_t i = 1; i < LatencyHistogram::kBuckets; ++i)
    EXPECT_GT(LatencyHistogram::bucket_upper(i),
              LatencyHistogram::bucket_upper(i - 1));
}

TEST(Metrics, SnapshotCountsByStatusAndRendersPercentiles) {
  ServiceMetrics m;
  m.on_submitted();
  m.on_submitted();
  m.on_submitted();
  m.on_completed("ok", 0.002);
  m.on_completed("degraded", 0.004);
  m.on_completed("error", 0.001);
  m.on_rejected();
  m.on_enqueued(3);
  m.on_dequeued(2);

  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.requests_total, 3u);
  EXPECT_EQ(s.responses_ok, 1u);
  EXPECT_EQ(s.responses_degraded, 1u);
  EXPECT_EQ(s.responses_error, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.queue_depth, 2u);
  EXPECT_EQ(s.queue_peak, 3u);

  // The wire frame is the key/value flattening, one METRIC line a pair.
  std::ostringstream frame;
  write_metrics_frame(s, frame);
  const std::string text = frame.str();
  EXPECT_EQ(text.rfind("METRICS\n", 0), 0u);
  EXPECT_NE(text.find("\nMETRIC latency_p50_seconds "), std::string::npos);
  EXPECT_NE(text.find("\nMETRIC latency_p95_seconds "), std::string::npos);
  EXPECT_NE(text.find("\nMETRIC cache_hit_rate 0\n"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            static_cast<std::ptrdiff_t>(s.key_values().size() + 2));
  // One gauge names the kernel clone the eigensolvers run.
  std::size_t isa_keys = 0;
  for (const auto& [key, value] : s.key_values())
    if (key == "kernel_avx2") {
      ++isa_keys;
      EXPECT_EQ(value, simd::active_isa() == simd::Isa::kAvx2 ? 1.0 : 0.0);
    }
  EXPECT_EQ(isa_keys, 1u);
}

TEST(Service, RestartServesWarmFromDiskTierByteIdentically) {
  // The tier-2 restart contract: a brand-new service process over the
  // same --cache-dir serves the very first request from disk — no
  // eigensolve — with response bytes identical to the cold compute.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("specpart_svc_restart_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  ServiceOptions opts;
  opts.num_workers = 0;
  opts.cache.cache_dir = dir;

  std::string cold;
  {
    PartitionService svc(opts);
    Diagnostics diag;
    cold = wire(svc.execute(make_request(), &diag));
    EXPECT_TRUE(has_stage(diag, "eigensolve"));
    EXPECT_EQ(svc.snapshot().storage.spills, 1u);
  }  // "process exit": tier 1 dies with the service

  {
    PartitionService svc(opts);  // "restart" over the same directory
    Diagnostics diag;
    const std::string warm = wire(svc.execute(make_request(), &diag));
    EXPECT_EQ(cold, warm);
    EXPECT_TRUE(has_stage(diag, "embedding_cache_disk_hit"));
    EXPECT_FALSE(has_stage(diag, "eigensolve"));
    const MetricsSnapshot snap = svc.snapshot();
    EXPECT_TRUE(snap.storage.present);
    EXPECT_EQ(snap.storage.disk_hits, 1u);
  }
  fs::remove_all(dir);
}

TEST(PipelineConfig, TokensRoundTrip) {
  using core::CoordScaling;
  using core::SelectionRule;
  for (CoordScaling v : {CoordScaling::kSqrtGap, CoordScaling::kGap,
                         CoordScaling::kInvSqrtLambda, CoordScaling::kUnit})
    EXPECT_EQ(core::parse_coord_scaling(core::coord_scaling_token(v)), v);
  for (SelectionRule v : {SelectionRule::kMagnitude, SelectionRule::kProjection,
                          SelectionRule::kCosine})
    EXPECT_EQ(core::parse_selection_rule(core::selection_rule_token(v)), v);
  for (model::NetModel v :
       {model::NetModel::kStandard, model::NetModel::kPartitioningSpecific,
        model::NetModel::kFrankle})
    EXPECT_EQ(core::parse_net_model(core::net_model_token(v)), v);
  EXPECT_THROW(core::parse_coord_scaling("nope"), Error);
  EXPECT_THROW(core::parse_net_model(""), Error);
}

TEST(PipelineConfig, FlowsIntoStageOptions) {
  core::PipelineConfig cfg;
  cfg.num_eigenvectors = 12;
  cfg.include_trivial = false;
  cfg.seed = 1234;
  cfg.selection = core::SelectionRule::kCosine;
  const spectral::EmbeddingOptions e = cfg.embedding_options();
  EXPECT_EQ(e.count, 12u);
  EXPECT_TRUE(e.skip_trivial);
  const core::MeloOrderingOptions o = cfg.ordering_options(2);
  EXPECT_EQ(o.selection, core::SelectionRule::kCosine);
  EXPECT_EQ(o.start_rank, 2u);
}

}  // namespace
}  // namespace specpart::service
