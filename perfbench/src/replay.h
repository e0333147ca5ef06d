// Traced replay of one request: the service's execution path rebuilt from
// each layer's public entry points, with a span around every call.
//
// PartitionService runs a request's whole pipeline behind one submit(),
// so its layers are only visible from outside when the benchmark makes
// the calls itself. replay_request() does what
// PartitionService::execute_internal and core::melo_bipartition /
// melo_multiway do for the requests the workloads send (default
// objective, fixed d, one start, no deadline); ReplayCache::compute does
// what the EmbeddingCache installed as the pipeline's EmbeddingProvider
// does (netlist_key, tier-1 lookup, tier-2 load, operator assembly,
// compute_eigenbasis, spill). The benchmark compares every replayed
// response with the service's bytes, so the copy cannot drift from the
// program unnoticed.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "model/assembly.h"
#include "spectral/embedding.h"
#include "storage/store_index.h"
#include "trace.h"
#include "util/hashing.h"
#include "util/parallel.h"
#include "util/status.h"

namespace perfbench {

/// The service's two basis-cache tiers, kept apart from the service's own.
/// Never evicts; the benchmark asserts the service did not either.
class ReplayCache {
 public:
  /// `store_dir` holds tier 2 (empty: no tier 2).
  ReplayCache(std::size_t dim_quantum, const std::string& store_dir);

  specpart::spectral::EigenBasis compute(
      const specpart::model::CliqueModel& cm,
      const specpart::spectral::EmbeddingOptions& opts,
      specpart::Diagnostics* diag, Tracer* tracer);

  /// Operators assembled, and their non-zeros summed.
  std::size_t assemblies() const;
  std::uint64_t nnz_total() const;

 private:
  std::size_t dim_quantum_;
  std::unique_ptr<specpart::storage::StoreIndex> disk_;
  mutable std::mutex mutex_;
  std::unordered_map<specpart::Fingerprint, specpart::spectral::EigenBasis,
                     specpart::FingerprintHash>
      tier1_;
  std::size_t assemblies_ = 0;
  std::uint64_t nnz_total_ = 0;
};

/// Executes one REQUEST frame as the service would and returns the
/// response bytes. `parallel` must be the service's kernel threading.
std::string replay_request(const std::string& wire, ReplayCache& cache,
                           const specpart::ParallelConfig& parallel,
                           Tracer* tracer, specpart::Diagnostics& diag);

}  // namespace perfbench
