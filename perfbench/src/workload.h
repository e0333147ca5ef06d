// Workload generation. Every input is a deterministic function of the
// workload's generator parameters and the seed: the same seed gives the
// same netlists and the same request bytes on every run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline_config.h"
#include "graph/hypergraph.h"
#include "service/protocol.h"

namespace perfbench {

/// Netlist settings shared by every workload: nets per module and planted
/// clusters of graph::generate_netlist.
inline constexpr double kNetsPerModule = 1.1;
inline constexpr std::size_t kClusters = 8;

/// Generator parameters of one workload. perfbench/setup.json records the
/// values of each workload; run.py passes them as --param key=value, and
/// every one of them is required.
struct WorkloadSpec {
  /// Netlists each client cycles through. 0 gives every request a netlist
  /// of its own, so no request can hit the basis cache.
  std::size_t pool = 0;
  /// Module count range. Sizes follow a fixed low-discrepancy sequence
  /// over the range, the same for every seed, so seeds change netlist
  /// structure but not the size mix.
  std::size_t n_min = 0;
  std::size_t n_max = 0;
  specpart::core::SolverStrategy strategy =
      specpart::core::SolverStrategy::kFlat;
  /// d of successive requests (of successive passes over the pool when
  /// pool > 0, so the first passes touch every cached dimension).
  std::vector<std::size_t> d_cycle;
  /// k, balance and scaling of successive requests: each list is
  /// shuffled anew for every block of its length, so every cycle holds
  /// each value equally often.
  std::vector<std::uint32_t> k_block;
  std::vector<double> balances;
  std::vector<specpart::core::CoordScaling> scalings;
  /// Requests planned per client, rounded up to whole cycles. A client of
  /// a pooled workload repeats its planned list until the deadline; a
  /// client of a cold one stops when it has sent them all, since a repeat
  /// would hit the cache.
  std::size_t planned_requests = 0;
  /// The quality metrics are scored over each client's first this many
  /// requests, rounded up to whole cycles, and a client never stops before
  /// it has sent them: the scored set does not depend on timing.
  std::size_t quality_requests = 0;
};

/// Builds a spec from key=value parameters; throws on an unknown or a
/// missing key.
WorkloadSpec parse_spec(const std::map<std::string, std::string>& params);

struct Request {
  std::uint32_t id = 0;
  /// The REQUEST frame as write_request produced it.
  std::string wire;
  std::shared_ptr<const specpart::graph::Hypergraph> graph;
  std::uint32_t k = 2;
  double balance = 0.45;
  /// (pooled netlist, solve dimension): the basis-cache entry the request
  /// maps to. The netlist part is only meaningful when the pool is
  /// non-empty.
  std::pair<std::size_t, std::size_t> cache_entry;
};

struct Plan {
  std::vector<std::vector<Request>> clients;
  /// Length of the repeating unit of every client's sequence: whole passes
  /// of the d cycle over the pool and whole k, balance and scaling blocks. Clients stop only at
  /// a cycle boundary, so every run holds the workload's designed mix.
  std::size_t cycle = 1;
  /// Leading requests of each client that the quality metrics score.
  std::size_t quality = 1;
  /// Whether a client starts its list over when it reaches the end.
  bool repeat = false;
  /// One request per pooled (netlist, solve dimension): what set-up solves
  /// into the basis store before the measured service starts. Empty when
  /// the pool is 0.
  std::vector<specpart::service::PartitionRequest> prewarm;
};

/// Requests for `clients` closed-loop clients. Clients never share a
/// pooled netlist, so no two clients race on the first touch of a cache
/// entry. `dim_quantum` is the service's solve-dimension quantum, which
/// maps each d to its cache entry.
Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed,
               std::size_t clients, std::size_t dim_quantum);

}  // namespace perfbench
