// Crash-safe directory index over basis files: the persistent cache
// tier's data plane.
//
// The index owns one directory of `<key-hex>.eb` files (basis_store.h
// format). It is *rebuild-on-open*: nothing but the basis files
// themselves is authoritative, so there is no journal to replay and no
// metadata file to corrupt. Opening scans the directory, validates each
// header against its filename, quarantines anything invalid (rename to
// `*.quarantined` — never delete evidence, never abort) and deletes
// stale `*.tmp` leftovers from interrupted writes.
//
// Writes are temp-file + atomic-rename, each write to its own
// `<key-hex>.eb.<n>.tmp`: a crash at any point leaves either no entry or
// a complete, valid entry, never a readable-but-corrupt one (the restart
// scan removes the orphaned temp), and concurrent writes of one key never
// share, truncate or publish each other's temp. Reads that
// hit corruption (bit rot, truncation after open) quarantine the entry
// and report a miss so the caller recomputes — the tier degrades, it
// never serves wrong bytes and never takes the process down.
//
// Eviction is byte-budgeted LRU ordered by file mtime (ties broken by
// key so the order is deterministic); a freshly rebuilt index inherits
// the pre-restart recency order to mtime resolution, which is exactly
// the durability this tier exists for.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "spectral/embedding.h"
#include "storage/basis_store.h"
#include "util/hashing.h"

namespace specpart::storage {

struct StoreOptions {
  /// Directory holding the basis files; created (recursively) on open.
  std::string dir;
  /// Byte budget over the stored files; exceeding it evicts LRU entries.
  std::size_t budget_bytes = 1ull << 30;
};

/// Monotonic counters; snapshot-consistent (taken under the index lock).
/// corrupt_quarantined counts both open-scan quarantines and read-path
/// quarantines.
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t spills = 0;
  /// store() calls that failed (I/O error, injected ENOSPC, injected
  /// crash); the tier keeps serving, the entry just is not persisted.
  std::uint64_t spill_failures = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt_quarantined = 0;
  std::size_t bytes_on_disk = 0;
  std::size_t entries = 0;
};

/// Thread-safe persistent basis store over one directory.
class StoreIndex {
 public:
  /// Opens (creating if needed) and scans `opts.dir`. Throws
  /// specpart::Error only when the directory itself cannot be created or
  /// listed — individual bad files are quarantined, never fatal.
  explicit StoreIndex(StoreOptions opts);

  /// Loads every stored column of the entry for `key`, or nullopt when
  /// absent. A corrupt entry is quarantined, counted, and reported as a
  /// miss; this never throws into serving.
  std::optional<spectral::EigenBasis> load(const Fingerprint& key);

  /// Persists `basis` under `key` via temp-file + atomic rename, then
  /// evicts to budget. Idempotent: an existing entry is refreshed (LRU
  /// bump), not rewritten. Returns false on failure (counted in
  /// spill_failures), which is never fatal to the caller.
  /// `objective_token` is recorded in the file header's extension zone
  /// only when non-default (see write_basis_file).
  bool store(const Fingerprint& key, const spectral::EigenBasis& basis,
             std::string_view solver_token, std::string_view strategy_token,
             std::string_view objective_token = {});

  /// Whether `key` is currently indexed (no I/O, no LRU effect).
  bool contains(const Fingerprint& key) const;

  StoreStats stats() const;

  const StoreOptions& options() const { return opts_; }

  /// Path of the entry file for `key` inside this store's directory.
  std::string entry_path(const Fingerprint& key) const;

 private:
  struct Entry {
    std::size_t bytes = 0;
    /// Position in lru_ (front = most recently used).
    std::list<Fingerprint>::iterator lru_pos;
  };

  /// Directory scan: delete temps, validate headers, quarantine garbage,
  /// seed the LRU in mtime order, evict to budget.
  void open_and_scan();
  void quarantine_locked(const Fingerprint& key, const std::string& path);
  void evict_to_budget_locked();

  StoreOptions opts_;
  /// Numbers each write's temp file (see store()).
  std::atomic<std::uint64_t> next_temp_{0};
  mutable std::mutex mutex_;
  std::list<Fingerprint> lru_;
  std::unordered_map<Fingerprint, Entry, FingerprintHash> entries_;
  StoreStats stats_;
};

}  // namespace specpart::storage
