#include "service/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/stringutil.h"

namespace specpart::service {

double LatencyHistogram::bucket_upper(std::size_t i) {
  return 1e-6 * std::pow(2.0, static_cast<double>(i) / 4.0);
}

void LatencyHistogram::record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  // Invert upper(i) = 1us * 2^(i/4): i = ceil(4 * log2(s / 1us)).
  std::size_t bucket = 0;
  if (seconds > 1e-6) {
    const double exact = 4.0 * std::log2(seconds * 1e6);
    bucket = static_cast<std::size_t>(std::max(0.0, std::ceil(exact)));
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  for (std::size_t i = 0; i < kBuckets; ++i)
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  s.total = total_.load(std::memory_order_relaxed);
  s.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

double LatencyHistogram::Snapshot::quantile(double q) const {
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample (1-based), then walk the cumulative counts.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= rank) {
      // Linear interpolation across the bucket's span.
      const double lo = i == 0 ? 0.0 : bucket_upper(i - 1);
      const double hi = bucket_upper(i);
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative = next;
  }
  return bucket_upper(kBuckets - 1);
}

void ServiceMetrics::on_completed(const std::string& status, double seconds) {
  if (status == "error")
    responses_error_.fetch_add(1, relaxed);
  else if (status == "ok")
    responses_ok_.fetch_add(1, relaxed);
  else
    responses_degraded_.fetch_add(1, relaxed);
  latency_.record(seconds);
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot s;
  s.requests_total = requests_total_.load(relaxed);
  s.responses_ok = responses_ok_.load(relaxed);
  s.responses_degraded = responses_degraded_.load(relaxed);
  s.responses_error = responses_error_.load(relaxed);
  s.rejected = rejected_.load(relaxed);
  s.objective_normalized_requests =
      objective_normalized_requests_.load(relaxed);
  s.queue_depth = queue_depth_.load(relaxed);
  s.queue_peak = queue_peak_.load(relaxed);
  s.latency = latency_.snapshot();
  return s;
}

std::vector<std::pair<std::string, double>> MetricsSnapshot::key_values()
    const {
  std::vector<std::pair<std::string, double>> kv = {
      {"requests_total", static_cast<double>(requests_total)},
      {"responses_ok", static_cast<double>(responses_ok)},
      {"responses_degraded", static_cast<double>(responses_degraded)},
      {"responses_error", static_cast<double>(responses_error)},
      {"rejected", static_cast<double>(rejected)},
      {"queue_depth", static_cast<double>(queue_depth)},
      {"queue_peak", static_cast<double>(queue_peak)},
      {"workers", static_cast<double>(workers)},
      {"kernel_avx2", kernel_avx2 ? 1.0 : 0.0},
      {"cache_lookups", static_cast<double>(cache_lookups)},
      {"cache_hits", static_cast<double>(cache_hits)},
      {"cache_prefix_hits", static_cast<double>(cache_prefix_hits)},
      {"cache_evictions", static_cast<double>(cache_evictions)},
      {"cache_bytes", static_cast<double>(cache_bytes)},
      {"cache_entries", static_cast<double>(cache_entries)},
      {"cache_hit_rate", cache_hit_rate},
  };
  // Emitted only when normalized-objective traffic was seen: a default-
  // objective deployment's METRICS frame bytes are unchanged.
  if (objective_normalized_requests > 0)
    kv.emplace_back("objective_normalized_requests",
                    static_cast<double>(objective_normalized_requests));
  if (storage.present) {
    kv.emplace_back("storage_disk_hits",
                    static_cast<double>(storage.disk_hits));
    kv.emplace_back("storage_disk_misses",
                    static_cast<double>(storage.disk_misses));
    kv.emplace_back("storage_spills", static_cast<double>(storage.spills));
    kv.emplace_back("storage_spill_failures",
                    static_cast<double>(storage.spill_failures));
    kv.emplace_back("storage_evictions",
                    static_cast<double>(storage.evictions));
    kv.emplace_back("storage_corrupt_quarantined",
                    static_cast<double>(storage.corrupt_quarantined));
    kv.emplace_back("storage_bytes_on_disk",
                    static_cast<double>(storage.bytes_on_disk));
    kv.emplace_back("storage_disk_entries",
                    static_cast<double>(storage.disk_entries));
  }
  const std::vector<std::pair<std::string, double>> latency_kv = {
      {"latency_count", static_cast<double>(latency.total)},
      {"latency_mean_seconds", latency.mean()},
      {"latency_p50_seconds", latency.quantile(0.50)},
      {"latency_p95_seconds", latency.quantile(0.95)},
      {"latency_p99_seconds", latency.quantile(0.99)},
  };
  kv.insert(kv.end(), latency_kv.begin(), latency_kv.end());
  if (router.present) {
    kv.emplace_back("router_requests", static_cast<double>(router.requests));
    kv.emplace_back("router_failovers", static_cast<double>(router.failovers));
    kv.emplace_back("router_local_fallbacks",
                    static_cast<double>(router.local_fallbacks));
    kv.emplace_back("router_retries", static_cast<double>(router.retries));
    kv.emplace_back("router_shards_total",
                    static_cast<double>(router.shards_total));
    kv.emplace_back("router_shards_live",
                    static_cast<double>(router.shards_live));
    for (std::size_t i = 0; i < router.shards.size(); ++i) {
      const RouterShardMetrics& s = router.shards[i];
      const std::string prefix = strprintf("shard%zu_", i);
      kv.emplace_back(prefix + "state", static_cast<double>(s.state));
      kv.emplace_back(prefix + "requests", static_cast<double>(s.requests));
      kv.emplace_back(prefix + "failures", static_cast<double>(s.failures));
      kv.emplace_back(prefix + "retries", static_cast<double>(s.retries));
      kv.emplace_back(prefix + "breaker_opens",
                      static_cast<double>(s.breaker_opens));
      kv.emplace_back(prefix + "pings_ok", static_cast<double>(s.pings_ok));
      kv.emplace_back(prefix + "pings_failed",
                      static_cast<double>(s.pings_failed));
    }
  }
  return kv;
}

}  // namespace specpart::service
