#include "service/cache.h"

#include <mutex>
#include <utility>

#include "multilevel/vcycle.h"
#include "util/stringutil.h"
#include "util/timer.h"

namespace specpart::service {

namespace {

/// Leading `count` pairs of a basis, presented as if the caller had asked
/// for exactly `count`. When the basis holds fewer pairs (small graph or a
/// degraded solve) the whole basis is returned with the shortfall flagged,
/// mirroring compute_eigenbasis's own truncation accounting.
spectral::EigenBasis slice_basis(const spectral::EigenBasis& full,
                                 std::size_t count) {
  spectral::EigenBasis out;
  out.n = full.n;
  out.laplacian_trace = full.laplacian_trace;
  out.requested = count;
  out.budget_exhausted = full.budget_exhausted;
  const std::size_t d = std::min(count, full.dimension());
  out.values.assign(full.values.begin(),
                    full.values.begin() + static_cast<std::ptrdiff_t>(d));
  out.vectors = linalg::DenseMatrix(full.n, d);
  for (std::size_t j = 0; j < d; ++j)
    for (std::size_t i = 0; i < full.n; ++i)
      out.vectors.at(i, j) = full.vectors.at(i, j);
  out.converged_pairs = std::min(full.converged_pairs, d);
  out.converged = out.converged_pairs == d && d > 0;
  out.truncated = d < count && (full.truncated || d < full.dimension());
  return out;
}

}  // namespace

EmbeddingCache::EmbeddingCache(EmbeddingCacheOptions opts)
    : opts_(std::move(opts)) {
  // A misconfigured --cache-dir (uncreatable directory) throws here:
  // failing fast at startup beats silently serving without durability.
  if (!opts_.cache_dir.empty() && opts_.max_bytes > 0) {
    storage::StoreOptions store;
    store.dir = opts_.cache_dir;
    store.budget_bytes = opts_.disk_budget_bytes;
    disk_ = std::make_unique<storage::StoreIndex>(std::move(store));
  }
}

std::size_t EmbeddingCache::quantized_count(std::size_t count) const {
  const std::size_t q = std::max<std::size_t>(1, opts_.dim_quantum);
  return ((count + q - 1) / q) * q;
}

std::size_t EmbeddingCache::basis_bytes(const spectral::EigenBasis& basis) {
  constexpr std::size_t kEntryOverhead = 256;  // map node, LRU node, struct
  return kEntryOverhead + sizeof(double) * basis.values.size() +
         sizeof(double) * basis.vectors.rows() * basis.vectors.cols();
}

Fingerprint EmbeddingCache::netlist_key(const graph::Hypergraph& h,
                                        model::NetModel net_model,
                                        std::size_t max_net_size,
                                        const spectral::EmbeddingOptions& opts,
                                        std::size_t solve_count) {
  Hasher hs;
  hs.mix_string("specpart.eigenbasis.v2");
  // Model content: pin lists are canonical (the Hypergraph ctor sorts and
  // dedups them), so hashing them verbatim plus the net-model token and
  // the size filter pins down the clique Laplacian without building it.
  hs.mix_string(core::net_model_token(net_model));
  hs.mix_size(max_net_size);
  hs.mix_size(h.num_nodes());
  hs.mix_size(h.num_nets());
  for (graph::NetId e = 0; e < h.num_nets(); ++e) {
    const auto& pins = h.net(e);
    hs.mix_size(pins.size());
    hs.mix_span(pins);
    hs.mix_double(h.net_weight(e));
  }
  // Solver configuration: anything that can change the returned bits. The
  // backend token ("scalar", the only one) and each 0 keep their slots —
  // a 0 stands for a retired setting or a solver's automatic choice — so
  // existing keys, and the tier-2 files stored under them, stay valid.
  hs.mix_bool(opts.skip_trivial);
  hs.mix_string(core::solver_backend_token(opts.solver.backend));
  hs.mix_size(opts.solver.dense_threshold);
  hs.mix_size(opts.solver.dense_fallback_limit);
  hs.mix_double(linalg::kSolverTolerance);
  hs.mix_size(0);  // Krylov cap
  hs.mix_size(0);  // retired block-width slot
  // Strategy + V-cycle constants: a flat-warmed cache must miss under
  // strategy=multilevel and vice versa.
  hs.mix_string(core::solver_strategy_token(opts.solver.strategy));
  hs.mix_size(multilevel::kCoarsestSize);
  hs.mix_size(multilevel::kRefineDegree);
  hs.mix_size(0);  // refinement sweep cap
  hs.mix_double(multilevel::kRefineTolerance);
  // Objective model: an unnormalized-warmed cache must miss under
  // objective=normalized. Gated so default keys are bit-identical to the
  // pre-objective domain.
  if (opts.objective != linalg::ObjectiveModel::kUnnormalized)
    hs.mix_string(core::objective_model_token(opts.objective));
  hs.mix_u64(opts.seed);
  hs.mix_size(solve_count);
  return hs.digest();
}

spectral::EigenBasis EmbeddingCache::compute(
    const model::CliqueModel& cm, const spectral::EmbeddingOptions& opts,
    Diagnostics* diag, ComputeBudget* budget) {
  const std::size_t solve_count = quantized_count(opts.count);
  const Fingerprint key =
      netlist_key(cm.hypergraph(), cm.net_model(),
                  cm.build_options().max_net_size, opts, solve_count);
  if (spectral::EigenBasis hit; lookup(key, opts.count, diag, hit))
    return hit;  // the model was never expanded
  if (spectral::EigenBasis hit; disk_lookup(key, opts.count, opts, diag, hit))
    return hit;  // still never expanded: tier 2 is keyed the same way

  // Miss: solve at the quantized dimension outside the lock (concurrent
  // misses on the same key both solve; the solver is deterministic, so
  // whichever insertion lands is bit-identical to the other).
  spectral::EmbeddingOptions solve_opts = opts;
  solve_opts.count = solve_count;
  spectral::EigenBasis full = spectral::compute_eigenbasis(
      cm.operator_matrix(opts.objective, diag), solve_opts, diag, budget);
  return insert(key, std::move(full), opts.count, opts, diag);
}

bool EmbeddingCache::lookup(const Fingerprint& key, std::size_t count,
                            Diagnostics* diag, spectral::EigenBasis& out) {
  Timer lookup_timer;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  if (count < it->second.basis.dimension()) ++stats_.prefix_hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  out = slice_basis(it->second.basis, count);
  if (diag != nullptr)
    diag->record_stage("embedding_cache_hit", lookup_timer.seconds());
  return true;
}

bool EmbeddingCache::disk_lookup(const Fingerprint& key, std::size_t count,
                                 const spectral::EmbeddingOptions& opts,
                                 Diagnostics* diag,
                                 spectral::EigenBasis& out) {
  if (disk_ == nullptr) return false;
  Timer timer;
  // The store loads the *full* stored basis: promoting a prefix would let
  // a later larger-d request in the same quantized bucket receive a
  // truncated slice, breaking the determinism contract.
  std::optional<spectral::EigenBasis> full = disk_->load(key);
  if (!full) return false;
  out = slice_basis(*full, count);
  promote(key, std::move(*full), opts);
  if (diag != nullptr)
    diag->record_stage("embedding_cache_disk_hit", timer.seconds());
  return true;
}

spectral::EigenBasis EmbeddingCache::insert(
    const Fingerprint& key, spectral::EigenBasis full, std::size_t count,
    const spectral::EmbeddingOptions& opts, Diagnostics* diag) {
  const bool clean =
      full.converged && !full.truncated && !full.budget_exhausted;
  spectral::EigenBasis sliced = slice_basis(full, count);
  // The fresh solve's cost counters belong to this run; cache *hits* go
  // through slice_basis alone and correctly report zero solve cost.
  sliced.solve_flops = full.solve_flops;
  sliced.solve_bytes_moved = full.solve_bytes_moved;

  // Write-behind spill before the tier-1 insert, outside the lock (the
  // write is eigensolve-sized I/O). The disk tier takes every clean
  // basis, even one too large for the in-memory budget — a disk budget
  // bigger than RAM is the point of the tier. Failures are counted in
  // the store's stats and degrade to nothing: tier 1 proceeds normally.
  if (disk_ != nullptr && clean)
    disk_->store(key, full, core::solver_backend_token(opts.solver.backend),
                 core::solver_strategy_token(opts.solver.strategy),
                 core::objective_model_token(opts.objective));

  std::vector<std::pair<Fingerprint, Entry>> spilled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t bytes = basis_bytes(full);
    if (!clean || bytes > opts_.max_bytes) {
      ++stats_.uncacheable;
      if (diag != nullptr && clean)
        diag->warn("embedding_cache",
                   strprintf("basis of %zu bytes exceeds the %zu-byte cache "
                             "budget; not cached",
                             bytes, opts_.max_bytes));
      return sliced;
    }
    admit_locked(key, std::move(full), bytes, opts, spilled);
  }
  spill(spilled);
  return sliced;
}

void EmbeddingCache::promote(const Fingerprint& key,
                             spectral::EigenBasis full,
                             const spectral::EmbeddingOptions& opts) {
  std::vector<std::pair<Fingerprint, Entry>> spilled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t bytes = basis_bytes(full);
    if (bytes > opts_.max_bytes) return;  // disk-only entry; serve the slice
    admit_locked(key, std::move(full), bytes, opts, spilled);
  }
  spill(spilled);
}

void EmbeddingCache::admit_locked(
    const Fingerprint& key, spectral::EigenBasis&& basis, std::size_t bytes,
    const spectral::EmbeddingOptions& opts,
    std::vector<std::pair<Fingerprint, Entry>>& spilled) {
  if (entries_.find(key) != entries_.end()) return;  // first solve wins
  lru_.push_front(key);
  Entry entry;
  entry.basis = std::move(basis);
  entry.bytes = bytes;
  entry.solver_token = core::solver_backend_token(opts.solver.backend);
  entry.strategy_token = core::solver_strategy_token(opts.solver.strategy);
  entry.objective_token = core::objective_model_token(opts.objective);
  entry.lru_pos = lru_.begin();
  entries_.emplace(key, std::move(entry));
  stats_.bytes += bytes;
  stats_.entries = entries_.size();
  ++stats_.insertions;
  evict_to_budget_locked(spilled);
}

void EmbeddingCache::evict_to_budget_locked(
    std::vector<std::pair<Fingerprint, Entry>>& spilled) {
  while (stats_.bytes > opts_.max_bytes && lru_.size() > 1) {
    const Fingerprint victim = lru_.back();
    auto it = entries_.find(victim);
    stats_.bytes -= it->second.bytes;
    spilled.emplace_back(victim, std::move(it->second));
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
}

void EmbeddingCache::spill(
    const std::vector<std::pair<Fingerprint, Entry>>& spilled) {
  if (disk_ == nullptr) return;
  // Spill-on-evict: usually a no-op (the insert-time spill already
  // persisted the entry and store() is idempotent), but it re-persists
  // entries whose earlier spill failed or was evicted from the disk tier.
  for (const auto& [key, entry] : spilled)
    disk_->store(key, entry.basis, entry.solver_token, entry.strategy_token,
                 entry.objective_token);
}

core::EmbeddingProvider EmbeddingCache::provider() {
  return [this](const model::CliqueModel& cm,
                const spectral::EmbeddingOptions& opts, Diagnostics* diag,
                ComputeBudget* budget) {
    return compute(cm, opts, diag, budget);
  };
}

EmbeddingCacheStats EmbeddingCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

storage::StoreStats EmbeddingCache::disk_stats() const {
  return disk_ == nullptr ? storage::StoreStats{} : disk_->stats();
}

}  // namespace specpart::service
