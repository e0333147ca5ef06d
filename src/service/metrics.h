// Serving metrics: request/error counters, queue depth, cache hit rate,
// and latency percentiles from a fixed-bucket histogram.
//
// Everything here is updated from hot serving paths, so the design goals
// are (a) wait-free recording — plain relaxed atomics, no locks — and
// (b) snapshot-then-render: readers take a consistent-enough copy
// (MetricsSnapshot) and all derivation (rates, percentiles) happens on the
// copy. MetricsSnapshot::key_values() is the one rendering of a snapshot:
// the METRICS wire frame (write_metrics_frame in service/server.h) prints
// it. Latency quantiles come from a fixed log-spaced bucket histogram
// (~19% resolution steps from 1 microsecond to ~4.6 hours), the standard
// serving-systems trade: bounded memory, wait-free writes, quantile error
// bounded by the bucket width.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/simd.h"

namespace specpart::service {

/// Fixed-bucket latency histogram. Bucket i counts samples in
/// (upper(i-1), upper(i)] with upper(i) = 1us * 2^(i/4) — four buckets per
/// doubling, 96 buckets, so the top bucket boundary exceeds 4 hours;
/// slower samples clamp into the last bucket.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 96;

  void record(double seconds);

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;
    double sum_seconds = 0.0;

    /// Quantile in seconds by linear interpolation inside the covering
    /// bucket; 0 when empty. q in [0, 1].
    double quantile(double q) const;
    double mean() const {
      return total == 0 ? 0.0 : sum_seconds / static_cast<double>(total);
    }
  };

  Snapshot snapshot() const;

  /// Upper bound of bucket i in seconds (exposed for tests).
  static double bucket_upper(std::size_t i);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
  /// Nanosecond sum (atomic doubles are not portable pre-C++20 everywhere;
  /// a 64-bit nanosecond counter overflows after ~584 years of latency).
  std::atomic<std::uint64_t> sum_nanos_{0};
};

/// Per-shard health and traffic counters inside a router snapshot.
struct RouterShardMetrics {
  /// "host:port" of the backend.
  std::string name;
  /// Circuit-breaker state: 0 = closed, 1 = open, 2 = half-open
  /// (service::ShardState values; kept as int so metrics.h does not
  /// depend on client.h).
  int state = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t pings_ok = 0;
  std::uint64_t pings_failed = 0;
};

/// Router tier counters, aggregated into the same MetricsSnapshot the
/// single-server METRICS frame renders. `present` is false for a plain
/// PartitionService snapshot, and absent sections emit nothing — the
/// non-router METRICS frame bytes are unchanged by this section existing.
struct RouterMetricsSection {
  bool present = false;
  std::uint64_t requests = 0;
  /// Requests re-routed past their primary shard (down, open breaker, or
  /// retry budget exhausted there).
  std::uint64_t failovers = 0;
  /// Requests computed by the router's own degraded-deadline engine after
  /// every shard was unavailable.
  std::uint64_t local_fallbacks = 0;
  /// Total shard-level resend attempts (sum over shards).
  std::uint64_t retries = 0;
  std::size_t shards_total = 0;
  /// Shards whose breaker is not open.
  std::size_t shards_live = 0;
  std::vector<RouterShardMetrics> shards;
};

/// Persistent tier-2 basis store counters, filled by the service from
/// storage::StoreStats when the tier is configured. `present` is false
/// when the tier is disabled, and absent sections emit nothing — a
/// tier-less deployment's METRICS frame bytes are unchanged by this
/// section existing (same contract as the router section).
struct StorageMetricsSection {
  bool present = false;
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t spills = 0;
  std::uint64_t spill_failures = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt_quarantined = 0;
  std::size_t bytes_on_disk = 0;
  std::size_t disk_entries = 0;
};

/// One consistent view of the service counters plus everything derived
/// from them. Produced by ServiceMetrics::snapshot() (and enriched with
/// cache stats by PartitionService::snapshot(), and with the router
/// section by ShardRouter::snapshot()).
struct MetricsSnapshot {
  std::uint64_t requests_total = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_degraded = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t rejected = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  std::size_t workers = 0;
  /// The kernel clone the eigensolvers run (util/simd.h): the gauge
  /// kernel_avx2 reads 1 for AVX2 and 0 for the baseline clone.
  bool kernel_avx2 = simd::active_isa() == simd::Isa::kAvx2;

  /// Requests carrying a non-default objective model (normalized
  /// Laplacian / conductance objective). Emitted in key_values() only when
  /// nonzero, so default-objective traffic's METRICS frames are
  /// byte-identical to the pre-objective format.
  std::uint64_t objective_normalized_requests = 0;

  // Cache section (filled by the service from EmbeddingCacheStats).
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_prefix_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_entries = 0;
  double cache_hit_rate = 0.0;

  /// Persistent tier-2 store (present only when cache_dir is configured).
  StorageMetricsSection storage;

  /// Router tier (present only in ShardRouter snapshots).
  RouterMetricsSection router;

  LatencyHistogram::Snapshot latency;

  /// Stable key/value flattening, the source of the METRICS wire frame
  /// (one METRIC line per pair, in this order). A new field is added here
  /// and nowhere else.
  std::vector<std::pair<std::string, double>> key_values() const;
};

/// Wait-free counter hub updated by the serving paths.
class ServiceMetrics {
 public:
  void on_submitted() { requests_total_.fetch_add(1, relaxed); }
  void on_rejected() { rejected_.fetch_add(1, relaxed); }
  /// A request arrived carrying a non-default (normalized) objective.
  void on_normalized_objective() {
    objective_normalized_requests_.fetch_add(1, relaxed);
  }

  void on_enqueued(std::size_t depth) {
    queue_depth_.store(depth, relaxed);
    std::size_t peak = queue_peak_.load(relaxed);
    while (depth > peak &&
           !queue_peak_.compare_exchange_weak(peak, depth, relaxed)) {
    }
  }
  void on_dequeued(std::size_t depth) { queue_depth_.store(depth, relaxed); }

  /// `status` is the wire status token of the finished response.
  void on_completed(const std::string& status, double seconds);

  MetricsSnapshot snapshot() const;

 private:
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;

  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> responses_ok_{0};
  std::atomic<std::uint64_t> responses_degraded_{0};
  std::atomic<std::uint64_t> responses_error_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> objective_normalized_requests_{0};
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::size_t> queue_peak_{0};
  LatencyHistogram latency_;
};

}  // namespace specpart::service
