// Tests for the persistent eigenbasis store (src/storage): on-disk format
// round-trips, corruption quarantine, missing files as misses, crash-safe
// and concurrent writes, reads racing eviction, byte-budgeted eviction,
// and the serving tier's restart/thread-count determinism and evict-time
// re-spill with tier 2 enabled.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "service/service.h"
#include "storage/basis_store.h"
#include "storage/store_index.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"

namespace fs = std::filesystem;

namespace specpart::storage {
namespace {

/// Unique temp directory, removed (with contents) at scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::uint64_t counter = 0;
    path_ = (fs::temp_directory_path() /
             ("specpart_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Deterministic synthetic basis with full-entropy fp64 payloads (so a
/// byte-level round-trip failure cannot hide behind pretty values).
spectral::EigenBasis make_basis(std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  spectral::EigenBasis b;
  b.n = n;
  b.requested = d;
  b.converged = true;
  b.converged_pairs = d;
  b.laplacian_trace = 12.5 + static_cast<double>(seed);
  b.values.resize(d);
  b.vectors = linalg::DenseMatrix(n, d);
  Rng rng(seed);
  for (std::size_t j = 0; j < d; ++j) {
    b.values[j] = static_cast<double>(j) + rng.next_double();
    for (std::size_t i = 0; i < n; ++i)
      b.vectors.at(i, j) = rng.next_normal();
  }
  return b;
}

Fingerprint make_key(std::uint64_t seed) {
  Hasher h;
  h.mix_string("test.storage.key");
  h.mix_u64(seed);
  return h.digest();
}

/// Number of `*.tmp` files (interrupted or in-flight writes) in `dir`.
std::size_t temp_files(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& de : fs::directory_iterator(dir))
    if (de.path().extension() == ".tmp") ++count;
  return count;
}

void expect_bit_equal(const spectral::EigenBasis& a,
                      const spectral::EigenBasis& b, std::size_t d) {
  ASSERT_EQ(b.dimension(), d);
  ASSERT_EQ(a.n, b.n);
  EXPECT_EQ(a.laplacian_trace, b.laplacian_trace);
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_EQ(a.values[j], b.values[j]) << "value " << j;
    for (std::size_t i = 0; i < a.n; ++i)
      EXPECT_EQ(a.vectors.at(i, j), b.vectors.at(i, j))
          << "entry (" << i << ", " << j << ")";
  }
}

TEST(BasisFile, RoundTripIsBitIdentical) {
  TempDir dir("roundtrip");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/a.eb";
  const spectral::EigenBasis b = make_basis(37, 10, 3);
  const Fingerprint key = make_key(3);
  write_basis_file(path, key, b, "scalar", "flat");

  const std::optional<spectral::EigenBasis> r = read_basis_file(path);
  ASSERT_TRUE(r.has_value());
  expect_bit_equal(b, *r, 10);
  const std::optional<BasisHeader> hdr = read_basis_header(path);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->n, 37u);
  EXPECT_EQ(hdr->d, 10u);
  EXPECT_EQ(hdr->chunk_cols, kChunkCols);
  EXPECT_EQ(hdr->key, key);
  EXPECT_EQ(hdr->solver_token, "scalar");
  EXPECT_EQ(hdr->strategy_token, "flat");
  // The loaded basis presents as a clean zero-cost cache hit.
  EXPECT_TRUE(r->converged);
  EXPECT_EQ(r->converged_pairs, 10u);
  EXPECT_FALSE(r->truncated);
  EXPECT_FALSE(r->budget_exhausted);
  EXPECT_EQ(r->solve_flops, 0u);
  // The file size formula matches reality (the eviction accounting
  // depends on it).
  EXPECT_EQ(fs::file_size(path), basis_file_size(37, 10, kChunkCols));
}

TEST(BasisFile, HeaderRejectsGarbageWithoutThrowing) {
  TempDir dir("garbage");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/junk.eb";
  std::ofstream(path, std::ios::binary) << "this is not a basis file";
  EXPECT_FALSE(read_basis_header(path).has_value());
  EXPECT_FALSE(read_basis_header(dir.path() + "/absent.eb").has_value());
  // An absent file is a miss for the body reader too, not an error.
  EXPECT_FALSE(read_basis_file(dir.path() + "/absent.eb").has_value());

  // A valid file truncated mid-chunk fails the exact-size check.
  const std::string full = dir.path() + "/full.eb";
  write_basis_file(full, make_key(1), make_basis(19, 8, 1), "scalar", "flat");
  const auto size = fs::file_size(full);
  fs::resize_file(full, size - 16);
  EXPECT_FALSE(read_basis_header(full).has_value());
}

TEST(BasisFile, FlippedByteFailsTheChunkChecksum) {
  TempDir dir("bitrot");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/a.eb";
  write_basis_file(path, make_key(2), make_basis(19, 8, 2), "scalar", "flat");

  // Flip one byte in the last chunk's payload; the header stays valid,
  // so only the chunk checksum can catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(-32, std::ios::end);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-32, std::ios::end);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();

  EXPECT_TRUE(read_basis_header(path).has_value());
  EXPECT_THROW(read_basis_file(path), Error);
}

/// Overwrites the u64 header field at `offset` of the basis file at `path`
/// and re-seals the header checksum (over bytes [0, 120), stored at 120),
/// as a crafted file would.
void set_header_field(const std::string& path, std::size_t offset,
                      std::uint64_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  char h[128];
  f.read(h, sizeof(h));
  std::memcpy(h + offset, &value, 8);
  const std::uint64_t sum = checksum64(h, 120);
  std::memcpy(h + 120, &sum, 8);
  f.seekp(0);
  f.write(h, sizeof(h));
}

TEST(BasisFile, HeaderRejectsSizeFieldsThatWrap) {
  TempDir dir("wrap");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/a.eb";

  // chunk_cols near 2^64 wraps num_chunks to zero. With the file cut to
  // the size that implies, a header check that trusted it would pass, and
  // the read would return all-zero columns without reading or verifying a
  // single chunk.
  write_basis_file(path, make_key(3), make_basis(19, 6, 3), "scalar", "flat");
  set_header_field(path, 32, ~0ull);
  fs::resize_file(path, kHeaderBytes + 8 * 6 + 8 * 19 * 6);
  EXPECT_FALSE(read_basis_header(path).has_value());
  EXPECT_THROW(read_basis_file(path), Error);

  // n = 2^40 times d = 2^24 is 2^64, which wraps to 0 and so passes a
  // guard on the computed product n * d <= 2^40. The file is extended
  // (sparsely) to the wrapped size, so only the guard can reject it.
  write_basis_file(path, make_key(4), make_basis(19, 6, 4), "scalar", "flat");
  set_header_field(path, 16, 1ull << 40);
  set_header_field(path, 24, 1ull << 24);
  fs::resize_file(path, kHeaderBytes + 8 * (1ull << 24) + 8 * (1ull << 22));
  EXPECT_FALSE(read_basis_header(path).has_value());
}

TEST(StoreIndex, StoreLoadAndRebuildOnOpen) {
  TempDir dir("index");
  const spectral::EigenBasis b = make_basis(29, 8, 7);
  const Fingerprint key = make_key(7);
  {
    StoreOptions opts;
    opts.dir = dir.path();
    StoreIndex index(opts);
    EXPECT_FALSE(index.load(key).has_value());  // miss on empty
    EXPECT_TRUE(index.store(key, b, "scalar", "flat"));
    EXPECT_TRUE(index.contains(key));
    EXPECT_TRUE(index.store(key, b, "scalar", "flat"));  // idempotent
    const StoreStats s = index.stats();
    EXPECT_EQ(s.spills, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.misses, 1u);
  }
  {
    // A fresh index over the same directory rebuilds from the files alone.
    StoreOptions opts;
    opts.dir = dir.path();
    StoreIndex index(opts);
    EXPECT_TRUE(index.contains(key));
    const auto loaded = index.load(key);
    ASSERT_TRUE(loaded.has_value());
    expect_bit_equal(b, *loaded, 8);
    EXPECT_EQ(index.stats().hits, 1u);
  }
}

TEST(StoreIndex, QuarantinesCorruptAndMisnamedEntriesOnOpen) {
  TempDir dir("quarantine");
  const Fingerprint key = make_key(11);
  {
    StoreOptions opts;
    opts.dir = dir.path();
    StoreIndex index(opts);
    index.store(key, make_basis(17, 8, 11), "scalar", "flat");
  }
  // Plant a garbage entry, a misnamed-but-valid entry (wrong content for
  // its name — must never be served), and an orphaned temp file.
  std::ofstream(dir.path() + "/" + make_key(12).hex() + ".eb",
                std::ios::binary)
      << "garbage";
  write_basis_file(dir.path() + "/" + make_key(13).hex() + ".eb",
                   make_key(14), make_basis(17, 8, 14), "scalar", "flat");
  std::ofstream(dir.path() + "/" + make_key(15).hex() + ".eb.tmp",
                std::ios::binary)
      << "half-written";

  StoreOptions opts;
  opts.dir = dir.path();
  StoreIndex index(opts);  // must not throw, must not abort
  EXPECT_TRUE(index.contains(key));
  EXPECT_FALSE(index.contains(make_key(12)));
  EXPECT_FALSE(index.contains(make_key(13)));
  const StoreStats s = index.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.corrupt_quarantined, 2u);

  // Quarantined files are renamed aside (evidence kept), temps removed.
  std::size_t quarantined = 0, temps = 0;
  for (const auto& de : fs::directory_iterator(dir.path())) {
    const std::string name = de.path().filename().string();
    if (name.size() > 12 &&
        name.substr(name.size() - 12) == ".quarantined")
      ++quarantined;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") ++temps;
  }
  EXPECT_EQ(quarantined, 2u);
  EXPECT_EQ(temps, 0u);
}

TEST(StoreIndex, ReadCorruptionQuarantinesAndDegradesToMiss) {
  TempDir dir("readrot");
  const Fingerprint key = make_key(21);
  StoreOptions opts;
  opts.dir = dir.path();
  StoreIndex index(opts);
  index.store(key, make_basis(17, 8, 21), "scalar", "flat");

  // Corrupt the published file in place (post-open bit rot).
  const std::string path = index.entry_path(key);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-16, std::ios::end);
  f.write("\xff", 1);
  f.close();

  EXPECT_FALSE(index.load(key).has_value());  // degraded, not thrown
  EXPECT_FALSE(index.contains(key));
  const StoreStats s = index.stats();
  EXPECT_EQ(s.corrupt_quarantined, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
}

TEST(StoreIndex, ConcurrentStoresOfOneKeyKeepOneIntactEntry) {
  // Concurrent misses on one key all solve and spill (service/cache.cpp),
  // so stores of one key race. Each round releases 8 writers of a fresh
  // key and a reader polling it together: no store may fail, no reader
  // may find a torn file, and the entry left behind must load bit-equal.
  constexpr std::size_t kRounds = 20;
  constexpr std::size_t kWriters = 8;
  TempDir dir("concurrent");
  const spectral::EigenBasis b = make_basis(20000, 16, 35);
  StoreOptions opts;
  opts.dir = dir.path();
  // Room for one entry: each round evicts the last, bounding the disk use.
  opts.budget_bytes = basis_file_size(b.n, 16, kChunkCols);
  StoreIndex index(opts);
  std::size_t missed_rounds = 0;
  std::size_t unequal_rounds = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const Fingerprint key = make_key(1000 + round);
    std::latch start(kWriters + 1);
    std::atomic<std::size_t> stored{0};
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWriters; ++w)
      threads.emplace_back([&] {
        start.arrive_and_wait();
        index.store(key, b, "scalar", "flat");
        ++stored;
      });
    threads.emplace_back([&] {
      start.arrive_and_wait();
      while (stored.load() < kWriters) index.load(key);
    });
    for (std::thread& t : threads) t.join();

    const auto loaded = index.load(key);
    if (!loaded) {
      ++missed_rounds;
    } else if (loaded->dimension() != 16 || loaded->values != b.values ||
               std::memcmp(loaded->vectors.data(), b.vectors.data(),
                           sizeof(double) * b.n * 16) != 0) {
      ++unequal_rounds;
    }
  }
  const StoreStats stats = index.stats();
  EXPECT_EQ(stats.spill_failures, 0u);
  EXPECT_EQ(stats.corrupt_quarantined, 0u);
  EXPECT_EQ(missed_rounds, 0u);
  EXPECT_EQ(unequal_rounds, 0u);
}

TEST(StoreIndex, MissingFileIsAMissNotCorruption) {
  // A file that vanished behind the index's back is a miss, not a
  // quarantine; the stale entry is forgotten so the next store persists
  // the key again.
  TempDir dir("vanished");
  const Fingerprint key = make_key(23);
  const spectral::EigenBasis b = make_basis(17, 8, 23);
  StoreOptions opts;
  opts.dir = dir.path();
  StoreIndex index(opts);
  ASSERT_TRUE(index.store(key, b, "scalar", "flat"));
  fs::remove(index.entry_path(key));

  EXPECT_FALSE(index.load(key).has_value());
  EXPECT_FALSE(index.contains(key));
  StoreStats s = index.stats();
  EXPECT_EQ(s.corrupt_quarantined, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes_on_disk, 0u);

  ASSERT_TRUE(index.store(key, b, "scalar", "flat"));
  const auto loaded = index.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_bit_equal(b, *loaded, 8);
  s = index.stats();
  EXPECT_EQ(s.spills, 2u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(StoreIndex, EvictionUnderAReadIsAMissNotCorruption) {
  // A reader loops on key A while a writer alternately stores B and A
  // into a store with room for one entry, so A's file is evicted and
  // stored again under the reader. No byte is corrupt anywhere: a read
  // that loses its file is a miss, nothing is quarantined, and A's fresh
  // entry stays indexed.
  constexpr std::size_t kRounds = 2000;
  TempDir dir("evictread");
  const spectral::EigenBasis a = make_basis(50, 8, 41);
  const spectral::EigenBasis b = make_basis(50, 8, 42);
  const Fingerprint key_a = make_key(41);
  const Fingerprint key_b = make_key(42);
  StoreOptions opts;
  opts.dir = dir.path();
  opts.budget_bytes = basis_file_size(50, 8, kChunkCols);
  StoreIndex index(opts);
  ASSERT_TRUE(index.store(key_a, a, "scalar", "flat"));

  std::atomic<bool> done{false};
  std::size_t unequal = 0;
  std::thread reader([&] {
    while (!done.load()) {
      const auto loaded = index.load(key_a);
      if (loaded && (loaded->values != a.values ||
                     std::memcmp(loaded->vectors.data(), a.vectors.data(),
                                 sizeof(double) * a.n * 8) != 0))
        ++unequal;
    }
  });
  for (std::size_t round = 0; round < kRounds; ++round) {
    index.store(key_b, b, "scalar", "flat");
    index.store(key_a, a, "scalar", "flat");
  }
  done = true;
  reader.join();

  const StoreStats stats = index.stats();
  EXPECT_EQ(stats.corrupt_quarantined, 0u);
  EXPECT_EQ(stats.spill_failures, 0u);
  EXPECT_EQ(unequal, 0u);
  EXPECT_TRUE(index.contains(key_a));
  std::size_t quarantined = 0;
  for (const auto& de : fs::directory_iterator(dir.path()))
    if (de.path().extension() == ".quarantined") ++quarantined;
  EXPECT_EQ(quarantined, 0u);
}

TEST(StoreIndex, EvictsLeastRecentlyUsedBeyondBudget) {
  TempDir dir("evict");
  const std::size_t entry_bytes = basis_file_size(16, 8, kChunkCols);
  StoreOptions opts;
  opts.dir = dir.path();
  opts.budget_bytes = 3 * entry_bytes;  // room for three entries
  StoreIndex index(opts);
  for (std::uint64_t i = 0; i < 5; ++i)
    ASSERT_TRUE(
        index.store(make_key(i), make_basis(16, 8, i), "scalar", "flat"));

  const StoreStats s = index.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_LE(s.bytes_on_disk, opts.budget_bytes);
  // Oldest two gone, newest three kept — and the files agree.
  EXPECT_FALSE(index.contains(make_key(0)));
  EXPECT_FALSE(index.contains(make_key(1)));
  for (std::uint64_t i = 2; i < 5; ++i) {
    EXPECT_TRUE(index.contains(make_key(i)));
    EXPECT_TRUE(fs::exists(index.entry_path(make_key(i))));
  }
  EXPECT_FALSE(fs::exists(index.entry_path(make_key(0))));
}

#ifdef SPECPART_FAULT_INJECTION

TEST(StorageFaults, ShortReadDegradesToQuarantinedMiss) {
  TempDir dir("shortread");
  const Fingerprint key = make_key(31);
  StoreOptions opts;
  opts.dir = dir.path();
  StoreIndex index(opts);
  index.store(key, make_basis(17, 8, 31), "scalar", "flat");

  fault::ScopedFaults guard;
  fault::arm("storage.short_read", 1);
  EXPECT_FALSE(index.load(key).has_value());
  EXPECT_EQ(fault::triggered("storage.short_read"), 1u);
  EXPECT_EQ(index.stats().corrupt_quarantined, 1u);
}

TEST(StorageFaults, ChecksumFlipDegradesToQuarantinedMiss) {
  TempDir dir("flip");
  const Fingerprint key = make_key(32);
  StoreOptions opts;
  opts.dir = dir.path();
  StoreIndex index(opts);
  index.store(key, make_basis(17, 8, 32), "scalar", "flat");

  fault::ScopedFaults guard;
  fault::arm("storage.checksum_flip", 1);
  EXPECT_FALSE(index.load(key).has_value());
  EXPECT_EQ(index.stats().corrupt_quarantined, 1u);
}

TEST(StorageFaults, EnospcOnSpillLeavesNoDebrisAndNoEntry) {
  TempDir dir("enospc");
  const Fingerprint key = make_key(33);
  StoreOptions opts;
  opts.dir = dir.path();
  StoreIndex index(opts);

  fault::ScopedFaults guard;
  fault::arm("storage.enospc", 1);
  EXPECT_FALSE(index.store(key, make_basis(17, 8, 33), "scalar", "flat"));
  EXPECT_EQ(index.stats().spill_failures, 1u);
  EXPECT_FALSE(index.contains(key));
  EXPECT_TRUE(fs::is_empty(dir.path()));

  // The same store succeeds once space is back.
  fault::reset();
  EXPECT_TRUE(index.store(key, make_basis(17, 8, 33), "scalar", "flat"));
  EXPECT_TRUE(index.load(key).has_value());
}

TEST(StorageFaults, CrashBeforeRenameNeverPublishesAndRecoversOnReopen) {
  TempDir dir("crash");
  const Fingerprint key = make_key(34);
  const spectral::EigenBasis b = make_basis(17, 8, 34);
  {
    StoreOptions opts;
    opts.dir = dir.path();
    StoreIndex index(opts);
    fault::ScopedFaults guard;
    fault::arm("storage.crash_before_rename", 1);
    EXPECT_FALSE(index.store(key, b, "scalar", "flat"));
    // The "crash" leaves the temp file exactly as a real crash would.
    EXPECT_EQ(temp_files(dir.path()), 1u);
    EXPECT_FALSE(fs::exists(index.entry_path(key)));
    EXPECT_FALSE(index.contains(key));
  }
  // Reopen = restart: the orphan temp is swept, nothing is served from
  // it, and a clean store over the same key succeeds.
  StoreOptions opts;
  opts.dir = dir.path();
  StoreIndex index(opts);
  EXPECT_EQ(temp_files(dir.path()), 0u);
  EXPECT_FALSE(index.contains(key));
  EXPECT_EQ(index.stats().corrupt_quarantined, 0u);
  EXPECT_TRUE(index.store(key, b, "scalar", "flat"));
  const auto loaded = index.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_bit_equal(b, *loaded, 8);
}

#endif  // SPECPART_FAULT_INJECTION

// ---- The serving tier with tier 2 enabled ------------------------------

graph::Hypergraph tier_netlist(std::uint64_t seed = 7) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = 90;
  cfg.num_nets = 120;
  cfg.num_clusters = 4;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

service::PartitionRequest tier_request(std::uint64_t seed = 7,
                                       std::size_t d = 8) {
  service::PartitionRequest req;
  req.id = "t";
  req.graph = tier_netlist(seed);
  req.pipeline.num_eigenvectors = d;
  return req;
}

std::string wire(const service::PartitionResponse& resp) {
  std::ostringstream out;
  service::write_response(resp, out);
  return out.str();
}

TEST(ServiceTier2, ColdSpillThenDiskHitIsByteIdentical) {
  TempDir dir("tier");
  service::ServiceOptions opts;
  opts.num_workers = 0;
  opts.cache.cache_dir = dir.path();

  std::string cold;
  {
    service::PartitionService svc(opts);
    cold = wire(svc.execute(tier_request()));
    const service::MetricsSnapshot snap = svc.snapshot();
    EXPECT_TRUE(snap.storage.present);
    EXPECT_EQ(snap.storage.spills, 1u);
    EXPECT_EQ(snap.storage.disk_hits, 0u);
  }
  {
    // Fresh service, same dir: tier 1 is cold, tier 2 must serve.
    service::PartitionService svc(opts);
    Diagnostics diag;
    const std::string warm = wire(svc.execute(tier_request(), &diag));
    EXPECT_EQ(cold, warm);
    bool disk_hit = false, eigensolve = false;
    for (const StageStats& s : diag.stages()) {
      if (s.name == "embedding_cache_disk_hit") disk_hit = true;
      if (s.name == "eigensolve") eigensolve = true;
    }
    EXPECT_TRUE(disk_hit);
    EXPECT_FALSE(eigensolve);
    EXPECT_EQ(svc.snapshot().storage.disk_hits, 1u);
  }
}

TEST(ServiceTier2, PromotionServesFromMemoryOnTheSecondLookup) {
  TempDir dir("promote");
  service::ServiceOptions opts;
  opts.num_workers = 0;
  opts.cache.cache_dir = dir.path();
  {
    service::PartitionService svc(opts);
    svc.execute(tier_request());
  }
  service::PartitionService svc(opts);
  svc.execute(tier_request());  // disk hit + promotion
  svc.execute(tier_request());  // must now be a tier-1 hit
  const service::MetricsSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.storage.disk_hits, 1u);
  EXPECT_EQ(snap.cache_hits, 1u);
}

TEST(ServiceTier2, PrefixRequestAfterRestartStaysByteIdenticalToCold) {
  // d = 10 quantizes to 16; the restarted service must promote the full
  // 16-column basis (not a 10-column prefix), so a later d = 12 request
  // in the same bucket still gets the untruncated slice.
  TempDir dir("prefix");
  service::ServiceOptions opts;
  opts.num_workers = 0;
  opts.cache.cache_dir = dir.path();

  std::string cold10, cold12;
  {
    service::ServiceOptions cold_opts = opts;
    cold_opts.cache.cache_dir.clear();  // no tier: pure cold compute
    service::PartitionService svc(cold_opts);
    cold10 = wire(svc.execute(tier_request(7, 10)));
    cold12 = wire(svc.execute(tier_request(7, 12)));
  }
  {
    service::PartitionService svc(opts);
    EXPECT_EQ(cold10, wire(svc.execute(tier_request(7, 10))));
  }
  service::PartitionService svc(opts);  // restart
  Diagnostics diag;
  EXPECT_EQ(cold12, wire(svc.execute(tier_request(7, 12), &diag)));
  bool disk_hit = false;
  for (const StageStats& s : diag.stages())
    if (s.name == "embedding_cache_disk_hit") disk_hit = true;
  EXPECT_TRUE(disk_hit);
}

TEST(ServiceTier2, ByteIdenticalAcrossThreadCountsWithTierEnabled) {
  std::vector<std::string> cold_wires, warm_wires;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    TempDir dir("threads" + std::to_string(threads));
    service::ServiceOptions opts;
    opts.num_workers = 0;
    opts.cache.cache_dir = dir.path();
    opts.parallel = ParallelConfig::with_threads(threads);
    {
      service::PartitionService svc(opts);
      cold_wires.push_back(wire(svc.execute(tier_request())));
    }
    service::PartitionService svc(opts);  // warm restart, disk-served
    warm_wires.push_back(wire(svc.execute(tier_request())));
    EXPECT_EQ(svc.snapshot().storage.disk_hits, 1u);
  }
  for (std::size_t i = 1; i < cold_wires.size(); ++i)
    EXPECT_EQ(cold_wires[0], cold_wires[i]) << "cold lane " << i;
  for (std::size_t i = 0; i < warm_wires.size(); ++i)
    EXPECT_EQ(cold_wires[0], warm_wires[i]) << "warm lane " << i;
}

TEST(ServiceTier2, MetricsFrameIsByteStableWhenTierDisabled) {
  // A tier-less deployment must emit exactly the pre-storage METRICS
  // frame: no storage_* keys at all.
  service::ServiceOptions opts;
  opts.num_workers = 0;
  service::PartitionService svc(opts);
  svc.execute(tier_request());
  const service::MetricsSnapshot snap = svc.snapshot();
  EXPECT_FALSE(snap.storage.present);
  for (const auto& [key, value] : snap.key_values())
    EXPECT_EQ(key.rfind("storage_", 0), std::string::npos) << key;
}

#ifdef SPECPART_FAULT_INJECTION

TEST(ServiceTier2, EvictionRepersistsAFailedSpill) {
  // An entry whose insert-time spill failed is persisted when tier 1
  // evicts it, so a restarted service still serves it from disk.
  TempDir dir("respill");
  service::ServiceOptions opts;
  opts.num_workers = 0;
  std::string cold_a;
  {
    // Learn one entry's footprint, then budget tier 1 for exactly one.
    service::PartitionService probe(opts);
    cold_a = wire(probe.execute(tier_request(1)));
    opts.cache.max_bytes = probe.snapshot().cache_bytes;
  }
  opts.cache.cache_dir = dir.path();
  {
    service::PartitionService svc(opts);
    {
      fault::ScopedFaults guard;
      fault::arm("storage.enospc", 1);
      EXPECT_EQ(wire(svc.execute(tier_request(1))), cold_a);
    }
    service::MetricsSnapshot snap = svc.snapshot();
    EXPECT_EQ(snap.storage.spill_failures, 1u);
    EXPECT_EQ(snap.storage.disk_entries, 0u);

    svc.execute(tier_request(2));  // same size: evicts A from tier 1
    snap = svc.snapshot();
    EXPECT_EQ(snap.cache_evictions, 1u);
    EXPECT_EQ(snap.cache_entries, 1u);
    EXPECT_EQ(snap.storage.spills, 2u);  // B at insert, A at eviction
    EXPECT_EQ(snap.storage.disk_entries, 2u);
  }
  service::PartitionService svc(opts);  // restart over the same directory
  Diagnostics diag;
  EXPECT_EQ(wire(svc.execute(tier_request(1), &diag)), cold_a);
  bool disk_hit = false, eigensolve = false;
  for (const StageStats& s : diag.stages()) {
    if (s.name == "embedding_cache_disk_hit") disk_hit = true;
    if (s.name == "eigensolve") eigensolve = true;
  }
  EXPECT_TRUE(disk_hit);
  EXPECT_FALSE(eigensolve);
  EXPECT_EQ(svc.snapshot().storage.disk_hits, 1u);
}

#endif  // SPECPART_FAULT_INJECTION

}  // namespace
}  // namespace specpart::storage
