// Content-addressed embedding cache for the partitioning service.
//
// The eigensolve dominates end-to-end cost, and the paper's own thesis
// makes its result unusually reusable: the leading Laplacian eigenvectors
// are a property of the (graph, net model) pair alone — every split
// method, every weighting scheme, every k consumes the same basis. The
// cache therefore keys on a fingerprint of exactly what the eigensolve
// depends on — the netlist's pin lists and net model, the trivial-pair
// accounting, the solver seed/tolerance/thresholds — and deliberately NOT
// on the request's weighting scheme, split method or k.
//
// *Dimension quantization keeps prefix reuse deterministic.* Serving a
// d' = 10 request as a prefix of an arbitrarily larger cached d = 20 basis
// would be fast but wrong under the serving determinism contract: Lanczos
// run for 20 pairs does not return bit-identical leading pairs to Lanczos
// run for 10, so the response would depend on what happened to be cached.
// Instead the cache *always* solves for dim_quantum-rounded d (e.g. a
// d = 10 request solves 16 pairs) and hands back the leading d columns.
// Cold or cached, first request or thousandth, 1 thread or 8: the response
// is a pure function of the request. Every d' with the same rounded d is a
// cache hit on the same entry — the "prefix reuse" the paper's
// more-eigenvectors thesis pays for.
//
// Eviction is byte-budgeted LRU over the stored bases. Only clean bases
// (fully converged, untruncated, not budget-limited) are inserted, so a
// degraded solve can never poison future requests.
//
// *Tier 2 — the persistent basis store.* When `cache_dir` is configured,
// a storage::StoreIndex sits beneath the in-memory tier: every clean
// solve is spilled write-behind (insert and evict both persist), and a
// tier-1 miss consults the disk before solving. A disk hit promotes the
// *full* stored basis back to tier 1 — promoting a prefix would let a
// later larger-d request in the same quantized bucket receive a
// truncated slice — records an `embedding_cache_disk_hit` stage, and
// serves bytes identical to a cold compute (the store round-trips fp64
// bit patterns exactly). Disk failures of any kind degrade to recompute;
// the tier can make the service faster, never wrong and never down.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/drivers.h"
#include "spectral/embedding.h"
#include "storage/store_index.h"
#include "util/hashing.h"

namespace specpart::service {

struct EmbeddingCacheOptions {
  /// Byte budget for stored eigenbases (values + vectors + bookkeeping).
  /// 0 stores nothing, in either tier: every request is a miss that solves
  /// at the quantized dimension, so its response equals a caching
  /// service's.
  std::size_t max_bytes = 256ull << 20;
  /// Eigensolve dimension is rounded up to the next multiple of this
  /// quantum (see file comment). 1 = no quantization: only exact-d repeats
  /// hit the cache.
  std::size_t dim_quantum = 8;
  /// Directory for the persistent tier-2 basis store. Empty (the default)
  /// disables the tier entirely — tier-1-only behavior, byte-identical to
  /// a build without src/storage.
  std::string cache_dir;
  /// Byte budget of the tier-2 directory; LRU files beyond it are deleted.
  std::size_t disk_budget_bytes = 1ull << 30;
};

/// Monotonic counters; snapshot-consistent (taken under the cache lock).
struct EmbeddingCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  /// Hits that served a strictly smaller d than the stored basis holds
  /// (subset of `hits`).
  std::uint64_t prefix_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Clean-solve results not inserted (degraded/truncated/budget-limited
  /// bases, or a basis alone larger than the byte budget).
  std::uint64_t uncacheable = 0;
  std::size_t bytes = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Thread-safe content-addressed LRU cache of Laplacian eigenbases.
class EmbeddingCache {
 public:
  explicit EmbeddingCache(EmbeddingCacheOptions opts = {});

  /// The cache-aware eigensolve over a lazy clique model (the
  /// core::EmbeddingProvider shape). The key is computed from the
  /// *hypergraph* plus the net-model token — not the expanded clique
  /// graph — so a hit returns the sliced basis without ever touching the
  /// model: no clique expansion, no Laplacian, no eigensolve. Hits record
  /// an "embedding_cache_hit" stage in `diag`; misses build the fused
  /// Laplacian, solve at the quantized dimension and insert. Safe to call
  /// from any number of service workers concurrently.
  spectral::EigenBasis compute(const model::CliqueModel& cm,
                               const spectral::EmbeddingOptions& opts,
                               Diagnostics* diag, ComputeBudget* budget);

  /// Binds this cache as a pipeline embedding provider. The cache must
  /// outlive every pipeline run using the provider.
  core::EmbeddingProvider provider();

  EmbeddingCacheStats stats() const;

  /// Whether the persistent tier is active (cache_dir configured, opened
  /// successfully, and a nonzero max_bytes).
  bool disk_enabled() const { return disk_ != nullptr; }

  /// Tier-2 counters (zeroes when the tier is disabled).
  storage::StoreStats disk_stats() const;

  const EmbeddingCacheOptions& options() const { return opts_; }

  /// Content key of one eigensolve: fingerprint of the pin lists + net
  /// weights + net-model token + max_net_size, the trivial-pair
  /// accounting, the solve configuration (backend, strategy, thresholds,
  /// tolerances, objective), the seed and the quantized solve dimension.
  /// Computable without expanding the model — a hit never pays for clique
  /// expansion. Hypergraphs that differ only in <2-pin nets expand
  /// identically but key differently: a spurious miss, never a false hit.
  /// Exposed for tests.
  static Fingerprint netlist_key(const graph::Hypergraph& h,
                                 model::NetModel net_model,
                                 std::size_t max_net_size,
                                 const spectral::EmbeddingOptions& opts,
                                 std::size_t solve_count);

  /// dim_quantum-rounded solve dimension for a requested count.
  std::size_t quantized_count(std::size_t count) const;

  /// Bytes one stored basis accounts for.
  static std::size_t basis_bytes(const spectral::EigenBasis& basis);

 private:
  struct Entry {
    spectral::EigenBasis basis;
    std::size_t bytes = 0;
    /// Solver/strategy/objective tokens of the options that produced the
    /// basis, kept so an evicted entry can still be spilled to tier 2
    /// (views of core's token tables, which have static storage).
    std::string_view solver_token;
    std::string_view strategy_token;
    std::string_view objective_token;
    /// Position in lru_ (front = most recently used).
    std::list<Fingerprint>::iterator lru_pos;
  };

  /// Hit path: under the lock, finds `key`, bumps its LRU position and
  /// writes the basis sliced to `count` into `out`. False on miss.
  bool lookup(const Fingerprint& key, std::size_t count, Diagnostics* diag,
              spectral::EigenBasis& out);

  /// Tier-2 path (tier-1 miss): loads the full stored basis from disk,
  /// promotes it to tier 1, records the disk-hit stage and writes the
  /// slice into `out`. False on a disk miss (or disabled tier).
  bool disk_lookup(const Fingerprint& key, std::size_t count,
                   const spectral::EmbeddingOptions& opts, Diagnostics* diag,
                   spectral::EigenBasis& out);

  /// Miss path: inserts `full` under `key` when it is clean and fits the
  /// budget (spilling it write-behind to tier 2 first), and returns it
  /// sliced to `count`.
  spectral::EigenBasis insert(const Fingerprint& key,
                              spectral::EigenBasis full, std::size_t count,
                              const spectral::EmbeddingOptions& opts,
                              Diagnostics* diag);

  /// Inserts an already-persisted basis into tier 1 (the promotion half
  /// of disk_lookup); spills any entries it evicts.
  void promote(const Fingerprint& key, spectral::EigenBasis full,
               const spectral::EmbeddingOptions& opts);

  /// Tier-1 admission, under the lock: unless `key` is already present
  /// (the first of concurrent solves wins), inserts `basis` with the
  /// tokens of `opts` and evicts LRU entries beyond the byte budget into
  /// `spilled`.
  void admit_locked(const Fingerprint& key, spectral::EigenBasis&& basis,
                    std::size_t bytes, const spectral::EmbeddingOptions& opts,
                    std::vector<std::pair<Fingerprint, Entry>>& spilled);

  /// Evicts LRU entries beyond the byte budget into `spilled` so the
  /// caller can persist them after releasing the lock.
  void evict_to_budget_locked(
      std::vector<std::pair<Fingerprint, Entry>>& spilled);

  /// Write-behind: persists evicted entries not already on disk.
  void spill(const std::vector<std::pair<Fingerprint, Entry>>& spilled);

  EmbeddingCacheOptions opts_;
  std::unique_ptr<storage::StoreIndex> disk_;
  mutable std::mutex mutex_;
  std::list<Fingerprint> lru_;
  std::unordered_map<Fingerprint, Entry, FingerprintHash> entries_;
  EmbeddingCacheStats stats_;
};

}  // namespace specpart::service
