// PartitionService: the serving engine behind specpart_server.
//
// Requests enter through a bounded job queue with admission control —
// submit() exerts backpressure by blocking while the queue is full,
// try_submit() rejects instead (and the rejection is counted) — and are
// executed by a pool of worker threads. Each execution runs the standard
// MELO pipeline (core/drivers.h) with three serving-layer attachments:
//
//  * the content-addressed EmbeddingCache installed as the pipeline's
//    embedding provider, so repeated eigensolves are skipped;
//  * a per-request ComputeBudget when a deadline is configured;
//  * a per-request Diagnostics sink feeding the ServiceMetrics hub.
//
// Determinism contract (extends the PR 3 fixed-block contract to serving):
// the serialized response is a pure function of the serialized request and
// the server's PipelineConfig-visible settings. Cold, cache-hit, 1 worker
// or 8, SPECPART_THREADS=1 or 8: byte-identical responses. Responses under
// an exhausted compute budget are the documented exception (best-so-far
// semantics are inherently wall-clock dependent). See docs/SERVING.md.
//
// Intra-request compute parallelism is the *server's* choice, not the
// client's: the request's ParallelConfig is overridden with
// ServiceOptions::parallel, so a remote client cannot oversubscribe the
// host. The kernels still funnel through util/parallel.h's shared
// ThreadPool, whose fixed-block reductions are what make the thread-count
// independence above hold.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "service/cache.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "util/parallel.h"

namespace specpart::service {

struct ServiceOptions {
  /// Worker threads executing requests.
  std::size_t num_workers = 2;
  /// Jobs that may wait in the queue (excluding the ones executing).
  std::size_t queue_capacity = 64;
  /// Embedding-cache sizing (max_bytes = 0 stores nothing; responses are
  /// the same at any budget).
  EmbeddingCacheOptions cache;
  /// Per-request compute budget in seconds (0 = unlimited). Budget-limited
  /// responses are best-so-far and exempt from the determinism contract.
  double deadline_seconds = 0.0;
  /// Server-side admission cap on clique-expansion size (exact pair count
  /// sum p(p-1)/2; 0 = unlimited). An oversized request fails fast with a
  /// structured `model_too_large` error response instead of attempting the
  /// allocation — note a cache hit never expands the model, so a request
  /// whose basis is cached still succeeds.
  std::size_t max_clique_pairs = 0;
  /// Compute-kernel threading for request execution (server-level; the
  /// request's own ParallelConfig is ignored). Default 0 = auto:
  /// $SPECPART_THREADS or hardware concurrency.
  ParallelConfig parallel = ParallelConfig::with_threads(0);
};

class PartitionService {
 public:
  explicit PartitionService(ServiceOptions opts = {});

  /// Drains the queue, then stops and joins the workers.
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Synchronous execution on the calling thread, bypassing the queue but
  /// sharing the cache and metrics. This is what `netlist_tool --json`
  /// uses, which is why CLI output and service responses cannot diverge.
  /// `diag` (optional) receives the run's diagnostics — the router uses it
  /// to record the `router_local_fallback` stage; diagnostics never alter
  /// the response bytes.
  PartitionResponse execute(const PartitionRequest& req,
                            Diagnostics* diag = nullptr);

  /// Asynchronous execution through the bounded queue. Blocks while the
  /// queue is full (backpressure). Throws specpart::Error after shutdown.
  std::future<PartitionResponse> submit(PartitionRequest req);

  /// Non-blocking admission: false (and a counted rejection) when the
  /// queue is full, true with `out` set otherwise.
  bool try_submit(PartitionRequest req,
                  std::future<PartitionResponse>& out);

  /// Finishes queued work, then stops the workers. Idempotent; implied by
  /// destruction.
  void shutdown();

  /// Counters + queue gauges + cache stats + latency percentiles.
  MetricsSnapshot snapshot() const;

  EmbeddingCacheStats cache_stats() const { return cache_.stats(); }
  const ServiceOptions& options() const { return opts_; }
  ServiceMetrics& metrics() { return metrics_; }

 private:
  struct Job {
    PartitionRequest request;
    std::promise<PartitionResponse> promise;
    std::chrono::steady_clock::time_point accepted;
  };

  void worker_loop();
  PartitionResponse execute_internal(const PartitionRequest& req,
                                     Diagnostics* external_diag = nullptr);
  std::future<PartitionResponse> enqueue_locked(PartitionRequest&& req,
                                                std::unique_lock<std::mutex>& lock);

  ServiceOptions opts_;
  EmbeddingCache cache_;
  ServiceMetrics metrics_;

  std::mutex mutex_;
  std::condition_variable not_empty_cv_;
  std::condition_variable not_full_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace specpart::service
