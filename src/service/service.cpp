#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <new>

#include "core/drivers.h"
#include "part/objectives.h"
#include "util/budget.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/status.h"

namespace specpart::service {

PartitionService::PartitionService(ServiceOptions opts)
    : opts_(opts), cache_(opts.cache) {
  const std::size_t workers = std::max<std::size_t>(1, opts_.num_workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

PartitionService::~PartitionService() { shutdown(); }

void PartitionService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  not_empty_cv_.notify_all();
  not_full_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

PartitionResponse PartitionService::execute(const PartitionRequest& req,
                                            Diagnostics* diag) {
  metrics_.on_submitted();
  const auto start = std::chrono::steady_clock::now();
  PartitionResponse resp = execute_internal(req, diag);
  metrics_.on_completed(
      resp.status,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return resp;
}

std::future<PartitionResponse> PartitionService::enqueue_locked(
    PartitionRequest&& req, std::unique_lock<std::mutex>& lock) {
  Job job;
  job.request = std::move(req);
  job.accepted = std::chrono::steady_clock::now();
  std::future<PartitionResponse> fut = job.promise.get_future();
  queue_.push_back(std::move(job));
  metrics_.on_submitted();
  metrics_.on_enqueued(queue_.size());
  lock.unlock();
  not_empty_cv_.notify_one();
  return fut;
}

std::future<PartitionResponse> PartitionService::submit(PartitionRequest req) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_cv_.wait(lock, [this] {
    return stopping_ || queue_.size() < opts_.queue_capacity;
  });
  SP_CHECK_INPUT(!stopping_, "PartitionService: submit after shutdown");
  return enqueue_locked(std::move(req), lock);
}

bool PartitionService::try_submit(PartitionRequest req,
                                  std::future<PartitionResponse>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  SP_CHECK_INPUT(!stopping_, "PartitionService: submit after shutdown");
  if (queue_.size() >= opts_.queue_capacity) {
    lock.unlock();
    metrics_.on_rejected();
    return false;
  }
  out = enqueue_locked(std::move(req), lock);
  return true;
}

void PartitionService::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_cv_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      metrics_.on_dequeued(queue_.size());
    }
    not_full_cv_.notify_one();
    PartitionResponse resp = execute_internal(job.request);
    metrics_.on_completed(
        resp.status, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - job.accepted)
                         .count());
    job.promise.set_value(std::move(resp));
  }
}

PartitionResponse PartitionService::execute_internal(
    const PartitionRequest& req, Diagnostics* external_diag) {
  PartitionResponse resp;
  resp.id = req.id;
  resp.k = req.k;
  if (req.pipeline.objective != core::ObjectiveModel::kUnnormalized)
    metrics_.on_normalized_objective();
  try {
    SP_CHECK_INPUT(req.graph.num_nodes() >= 2,
                   "request graph needs at least 2 vertices");
    SP_CHECK_INPUT(req.k >= 2, "request k must be >= 2");
    SP_CHECK_INPUT(req.k <= req.graph.num_nodes(),
                   "request k exceeds the vertex count");

    Diagnostics local_diag;
    Diagnostics& diag = external_diag != nullptr ? *external_diag : local_diag;
    ComputeBudget budget;
    core::MeloOptions m;
    static_cast<core::PipelineConfig&>(m) = req.pipeline;
    // Kernel threading is a server decision (see service.h).
    m.parallel = opts_.parallel;
    // Model admission is too: the server's cap overrides whatever the
    // request carried.
    if (opts_.max_clique_pairs > 0) m.max_clique_pairs = opts_.max_clique_pairs;
    m.diagnostics = &diag;
    if (opts_.deadline_seconds > 0.0) {
      budget = ComputeBudget::with_deadline(opts_.deadline_seconds);
      m.budget = &budget;
    }
    m.embedding_provider = cache_.provider();
    if (SP_FAULT("service.solve_bad_alloc")) throw std::bad_alloc();

    if (req.k == 2) {
      const core::MeloBipartitionResult r =
          core::melo_bipartition(req.graph, m, req.balance);
      resp.cut = r.cut;
      resp.ratio_cut = r.ratio_cut;
      resp.scaled_cost = part::scaled_cost(req.graph, r.partition);
      resp.eigenvectors_used = r.eigenvectors_used;
      resp.eigen_converged = r.eigen_converged;
      resp.budget_exhausted = r.budget_exhausted;
      resp.assignment = r.partition.assignment();
    } else {
      const core::MeloMultiwayResult r =
          core::melo_multiway(req.graph, req.k, m);
      resp.scaled_cost = r.scaled_cost;
      resp.cut = part::cut_nets(req.graph, r.partition);
      resp.ratio_cut = 0.0;
      resp.eigenvectors_used = r.eigenvectors_used;
      resp.eigen_converged = r.eigen_converged;
      resp.budget_exhausted = r.budget_exhausted;
      resp.assignment = r.partition.assignment();
    }
    // Response status reflects *result* properties only (convergence,
    // budget), never process properties (cache hits, fallback counts, who
    // served it) — process detail lives in metrics/diagnostics. This is
    // what keeps cold and cached responses byte-identical even when the
    // cold solve needed a recovered fallback.
    resp.status = resp.budget_exhausted
                      ? std::string(status_token(StatusCode::kBudgetExhausted))
                      : resp.eigen_converged
                            ? std::string(status_token(StatusCode::kOk))
                            : std::string(status_token(StatusCode::kDegraded));
  } catch (const Error& e) {
    resp.status = "error";
    resp.error = e.what();
    resp.assignment.clear();
  } catch (const std::bad_alloc&) {
    // The solve's memory is released by the unwind, so one oversized
    // request fails alone instead of terminating the server.
    resp.status = "error";
    resp.error = "out_of_memory: the server could not allocate the solve";
    resp.assignment.clear();
  }
  return resp;
}

MetricsSnapshot PartitionService::snapshot() const {
  MetricsSnapshot s = metrics_.snapshot();
  s.workers = workers_.size();
  const EmbeddingCacheStats c = cache_.stats();
  s.cache_lookups = c.lookups;
  s.cache_hits = c.hits;
  s.cache_prefix_hits = c.prefix_hits;
  s.cache_evictions = c.evictions;
  s.cache_bytes = c.bytes;
  s.cache_entries = c.entries;
  s.cache_hit_rate = c.hit_rate();
  if (cache_.disk_enabled()) {
    const storage::StoreStats d = cache_.disk_stats();
    s.storage.present = true;
    s.storage.disk_hits = d.hits;
    s.storage.disk_misses = d.misses;
    s.storage.spills = d.spills;
    s.storage.spill_failures = d.spill_failures;
    s.storage.evictions = d.evictions;
    s.storage.corrupt_quarantined = d.corrupt_quarantined;
    s.storage.bytes_on_disk = d.bytes_on_disk;
    s.storage.disk_entries = d.entries;
  }
  return s;
}

}  // namespace specpart::service
