#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "graph/generator.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stringutil.h"

using namespace specpart;

namespace perfbench {

namespace {

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream in(value);
  for (std::string item; std::getline(in, item, ':');) out.push_back(item);
  SP_CHECK_INPUT(!out.empty(), "empty list parameter");
  return out;
}

template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& value, Parse parse) {
  std::vector<T> out;
  for (const std::string& item : split_list(value)) out.push_back(parse(item));
  return out;
}

/// Successive values of a list, reshuffled at the start of every block of
/// its length: each whole block holds every value once.
template <typename T>
class Blocks {
 public:
  Blocks(std::vector<T> values, Rng& rng)
      : values_(std::move(values)), rng_(rng) {}
  T next() {
    if (drawn_ % values_.size() == 0) rng_.shuffle(values_);
    return values_[drawn_++ % values_.size()];
  }

 private:
  std::vector<T> values_;
  Rng& rng_;
  std::size_t drawn_ = 0;
};

}  // namespace

WorkloadSpec parse_spec(const std::map<std::string, std::string>& params) {
  WorkloadSpec s;
  const auto size = [](const std::string& v) {
    return static_cast<std::size_t>(std::stoull(v));
  };
  for (const auto& [key, value] : params) {
    if (key == "pool") {
      s.pool = size(value);
    } else if (key == "n_min") {
      s.n_min = size(value);
    } else if (key == "n_max") {
      s.n_max = size(value);
    } else if (key == "strategy") {
      s.strategy = core::parse_solver_strategy(value);
    } else if (key == "d") {
      s.d_cycle = parse_list<std::size_t>(value, size);
    } else if (key == "k") {
      s.k_block = parse_list<std::uint32_t>(value, [](const std::string& v) {
        return static_cast<std::uint32_t>(std::stoul(v));
      });
    } else if (key == "balance") {
      s.balances = parse_list<double>(
          value, [](const std::string& v) { return std::stod(v); });
    } else if (key == "scaling") {
      s.scalings = parse_list<core::CoordScaling>(
          value,
          [](const std::string& v) { return core::parse_coord_scaling(v); });
    } else if (key == "planned_requests") {
      s.planned_requests = size(value);
    } else if (key == "quality_requests") {
      s.quality_requests = size(value);
    } else {
      throw Error("unknown workload parameter " + key);
    }
  }
  for (const char* key : {"pool", "n_min", "n_max", "strategy", "d", "k",
                          "balance", "scaling", "planned_requests",
                          "quality_requests"})
    SP_CHECK_INPUT(params.count(key) == 1,
                   std::string("missing workload parameter ") + key);
  SP_CHECK_INPUT(s.n_min >= 2 && s.n_min <= s.n_max,
                 "need 2 <= n_min <= n_max");
  SP_CHECK_INPUT(s.planned_requests >= 1 && s.quality_requests >= 1,
                 "planned_requests and quality_requests must be >= 1");
  return s;
}

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed,
               std::size_t clients, std::size_t dim_quantum) {
  Rng rng(seed);
  const auto solve_dim = [dim_quantum](std::size_t d) {
    return (d + dim_quantum - 1) / dim_quantum * dim_quantum;
  };
  std::size_t generated = 0;
  const auto netlist = [&] {
    // Golden-ratio sequence over [n_min, n_max]: the same for every seed.
    const double u =
        std::fmod(0.6180339887498949 * static_cast<double>(++generated), 1.0);
    graph::GeneratorConfig cfg;
    cfg.num_modules =
        spec.n_min + static_cast<std::size_t>(
                         u * static_cast<double>(spec.n_max - spec.n_min + 1));
    cfg.num_nets = static_cast<std::size_t>(std::llround(
        kNetsPerModule * static_cast<double>(cfg.num_modules)));
    cfg.num_clusters = kClusters;
    cfg.seed = rng.next_u64();
    return std::make_shared<const graph::Hypergraph>(
        graph::generate_netlist(cfg));
  };

  Plan plan;
  const std::size_t per_pass = std::max<std::size_t>(spec.pool, 1);
  plan.cycle = std::lcm(
      std::lcm(per_pass * spec.d_cycle.size(), spec.k_block.size()),
      std::lcm(spec.balances.size(), spec.scalings.size()));
  const auto whole_cycles = [&plan](std::size_t requests) {
    return (requests + plan.cycle - 1) / plan.cycle * plan.cycle;
  };
  const std::size_t planned = whole_cycles(spec.planned_requests);
  plan.quality = whole_cycles(spec.quality_requests);
  plan.repeat = spec.pool > 0;
  SP_CHECK_INPUT(plan.repeat || plan.quality <= planned,
                 "a cold workload must plan its quality requests");
  std::uint32_t next_id = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    std::vector<std::shared_ptr<const graph::Hypergraph>> pool;
    for (std::size_t i = 0; i < spec.pool; ++i) pool.push_back(netlist());

    std::vector<Request>& requests = plan.clients.emplace_back();
    Blocks<std::uint32_t> ks(spec.k_block, rng);
    Blocks<double> balances(spec.balances, rng);
    Blocks<core::CoordScaling> scalings(spec.scalings, rng);
    for (std::size_t j = 0; j < planned; ++j) {
      Request r;
      r.id = next_id++;
      r.graph = spec.pool > 0 ? pool[j % spec.pool] : netlist();
      r.k = ks.next();
      r.balance = balances.next();

      service::PartitionRequest req;
      req.id = strprintf("q%u", r.id);
      req.k = r.k;
      req.balance = r.balance;
      req.pipeline.num_eigenvectors =
          spec.d_cycle[(j / per_pass) % spec.d_cycle.size()];
      req.pipeline.scaling = scalings.next();
      req.pipeline.solver.strategy = spec.strategy;
      req.graph = *r.graph;
      r.cache_entry = {c * spec.pool + j % per_pass,
                       solve_dim(req.pipeline.num_eigenvectors)};
      std::ostringstream wire;
      service::write_request(req, wire);
      r.wire = wire.str();
      requests.push_back(std::move(r));
    }

    // Pre-warm one request per (pooled netlist, solve dimension); the
    // requests' other knobs are not part of the cache key.
    std::set<std::size_t> dims;
    for (const std::size_t d : spec.d_cycle) dims.insert(solve_dim(d));
    for (const auto& g : pool)
      for (const std::size_t dim : dims) {
        service::PartitionRequest req;
        req.id = strprintf("warm%zu", plan.prewarm.size());
        req.pipeline.num_eigenvectors = dim;
        req.pipeline.solver.strategy = spec.strategy;
        req.graph = *g;
        plan.prewarm.push_back(std::move(req));
      }
  }
  return plan;
}

}  // namespace perfbench
