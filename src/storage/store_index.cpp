#include "storage/store_index.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "util/error.h"
#include "util/fault.h"

namespace fs = std::filesystem;

namespace specpart::storage {

namespace {

constexpr std::string_view kEntrySuffix = ".eb";
constexpr std::string_view kTempSuffix = ".tmp";
constexpr std::string_view kQuarantineSuffix = ".quarantined";

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

StoreIndex::StoreIndex(StoreOptions opts) : opts_(std::move(opts)) {
  SP_CHECK_INPUT(!opts_.dir.empty(), "storage: store directory is empty");
  open_and_scan();
}

std::string StoreIndex::entry_path(const Fingerprint& key) const {
  return (fs::path(opts_.dir) / (key.hex() + std::string(kEntrySuffix)))
      .string();
}

void StoreIndex::open_and_scan() {
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec && !fs::is_directory(opts_.dir))
    throw Error("storage: cannot create store directory " + opts_.dir +
                ": " + ec.message());

  // Collect candidates first (mutating the directory mid-iteration is
  // implementation-defined), then validate each.
  struct Candidate {
    std::string path;
    std::string name;
    fs::file_time_type mtime;
  };
  std::vector<Candidate> found;
  for (const auto& de : fs::directory_iterator(opts_.dir, ec)) {
    if (!de.is_regular_file()) continue;
    Candidate c;
    c.path = de.path().string();
    c.name = de.path().filename().string();
    c.mtime = de.last_write_time(ec);
    found.push_back(std::move(c));
  }
  if (ec)
    throw Error("storage: cannot list store directory " + opts_.dir + ": " +
                ec.message());

  // Deterministic rebuild order: oldest first (so the LRU back is the
  // eviction victim), ties broken by name.
  std::sort(found.begin(), found.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.name < b.name;
            });

  std::lock_guard<std::mutex> lock(mutex_);
  for (const Candidate& c : found) {
    if (ends_with(c.name, kTempSuffix)) {
      // Orphan of an interrupted write: the rename never happened, so
      // nothing references it. Safe (and correct) to remove.
      fs::remove(c.path, ec);
      continue;
    }
    if (!ends_with(c.name, kEntrySuffix)) continue;  // quarantined etc.

    const std::optional<BasisHeader> hdr = read_basis_header(c.path);
    const std::string expected_name =
        hdr ? hdr->key.hex() + std::string(kEntrySuffix) : std::string();
    if (!hdr || c.name != expected_name) {
      // Invalid header, truncation, or a file stored under the wrong
      // name (which would serve the wrong content): quarantine.
      fs::rename(c.path, c.path + std::string(kQuarantineSuffix), ec);
      ++stats_.corrupt_quarantined;
      continue;
    }
    const std::size_t bytes =
        basis_file_size(hdr->n, hdr->d, hdr->chunk_cols);
    lru_.push_front(hdr->key);  // newest scanned = most recently used
    Entry entry;
    entry.bytes = bytes;
    entry.lru_pos = lru_.begin();
    entries_.emplace(hdr->key, std::move(entry));
    stats_.bytes_on_disk += bytes;
  }
  stats_.entries = entries_.size();
  evict_to_budget_locked();
}

std::optional<spectral::EigenBasis> StoreIndex::load(const Fingerprint& key) {
  const std::string path = entry_path(key);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }

  // I/O outside the lock: the file is immutable once renamed into place,
  // and a concurrent eviction at worst turns this into a miss.
  try {
    spectral::EigenBasis basis = read_basis_file(path);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return basis;
  } catch (const Error&) {
    // Corruption discovered after open (bit rot, truncation, injected
    // fault): quarantine and degrade to a miss — never throw into
    // serving, never serve wrong bytes.
    std::lock_guard<std::mutex> lock(mutex_);
    quarantine_locked(key, path);
    ++stats_.misses;
    return std::nullopt;
  }
}

bool StoreIndex::store(const Fingerprint& key,
                       const spectral::EigenBasis& basis,
                       std::string_view solver_token,
                       std::string_view strategy_token,
                       std::string_view objective_token) {
  const std::string path = entry_path(key);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {  // idempotent: refresh recency only
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return true;
    }
  }

  // Write outside the lock (the eigensolve-sized payload dominates), to
  // a temp path of this write alone. Concurrent stores of one key happen
  // (the cache lets concurrent misses all solve and spill); a shared temp
  // would let a later writer truncate the file an earlier one is about to
  // publish. With one temp each, every rename publishes a complete file
  // of identical bytes, and a reader keeps whichever file it opened.
  const std::string tmp = path + "." + std::to_string(next_temp_++) +
                          std::string(kTempSuffix);
  try {
    write_basis_file(tmp, key, basis, solver_token, strategy_token,
                     objective_token);
  } catch (const Error&) {
    std::error_code ec;
    fs::remove(tmp, ec);  // a failed write must not leave debris
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.spill_failures;
    return false;
  }

  if (SP_FAULT("storage.crash_before_rename")) {
    // Simulated crash between write and publish: the temp stays on disk
    // exactly as a real crash would leave it (the next open's scan
    // removes it), and the entry was never published.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.spill_failures;
    return false;
  }

  std::error_code ec;
  fs::rename(tmp, path, ec);  // atomic publish
  if (ec) {
    fs::remove(tmp, ec);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.spill_failures;
    return false;
  }

  const std::size_t bytes =
      basis_file_size(basis.n, basis.dimension(), kChunkCols);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.find(key) == entries_.end()) {
    lru_.push_front(key);
    Entry entry;
    entry.bytes = bytes;
    entry.lru_pos = lru_.begin();
    entries_.emplace(key, std::move(entry));
    stats_.bytes_on_disk += bytes;
    stats_.entries = entries_.size();
    ++stats_.spills;
    evict_to_budget_locked();
  }
  return true;
}

bool StoreIndex::contains(const Fingerprint& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(key) != entries_.end();
}

StoreStats StoreIndex::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void StoreIndex::quarantine_locked(const Fingerprint& key,
                                   const std::string& path) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    stats_.bytes_on_disk -= it->second.bytes;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    stats_.entries = entries_.size();
  }
  std::error_code ec;
  fs::rename(path, path + std::string(kQuarantineSuffix), ec);
  if (ec) fs::remove(path, ec);  // fall back to unlink; never rethrow
  ++stats_.corrupt_quarantined;
}

void StoreIndex::evict_to_budget_locked() {
  // Keep at least the most recent entry, mirroring the in-memory tier:
  // a budget smaller than one basis still serves that basis.
  while (stats_.bytes_on_disk > opts_.budget_bytes && lru_.size() > 1) {
    const Fingerprint victim = lru_.back();
    auto it = entries_.find(victim);
    stats_.bytes_on_disk -= it->second.bytes;
    std::error_code ec;
    fs::remove(entry_path(victim), ec);
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
}

}  // namespace specpart::storage
