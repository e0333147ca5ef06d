#include "replay.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/melo.h"
#include "core/pipeline_config.h"
#include "core/reduction.h"
#include "part/objectives.h"
#include "part/ordering.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "spectral/dprp.h"
#include "util/error.h"

using namespace specpart;

namespace perfbench {

namespace {

/// Leading `count` pairs of a basis, exactly as the service's cache hands
/// them out (slice_basis in service/cache.cpp).
spectral::EigenBasis slice(const spectral::EigenBasis& full,
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

/// E(C): weight of clique-graph edges leaving `members`, the input of the
/// drivers' H readjustment.
double set_degree(const graph::Graph& g,
                  const std::vector<graph::NodeId>& members,
                  std::vector<char>& scratch) {
  scratch.assign(g.num_nodes(), 0);
  for (graph::NodeId v : members) scratch[v] = 1;
  double degree = 0.0;
  for (const graph::Edge& e : g.edges())
    if (scratch[e.u] != scratch[e.v]) degree += e.weight;
  return degree;
}

}  // namespace

ReplayCache::ReplayCache(std::size_t dim_quantum, const std::string& store_dir)
    : dim_quantum_(std::max<std::size_t>(1, dim_quantum)) {
  if (!store_dir.empty()) {
    storage::StoreOptions opts;
    opts.dir = store_dir;
    disk_ = std::make_unique<storage::StoreIndex>(std::move(opts));
  }
}

spectral::EigenBasis ReplayCache::compute(
    const model::CliqueModel& cm, const spectral::EmbeddingOptions& opts,
    Diagnostics* diag, Tracer* tracer) {
  const std::size_t solve_count =
      (opts.count + dim_quantum_ - 1) / dim_quantum_ * dim_quantum_;
  Fingerprint key;
  {
    Tracer::Scope span(tracer, "service.fingerprint");
    key = service::EmbeddingCache::netlist_key(
        cm.hypergraph(), cm.net_model(), cm.build_options().max_net_size, opts,
        solve_count);
  }
  {
    Tracer::Scope span(tracer, "service.cache_lookup");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tier1_.find(key);
    if (it != tier1_.end()) return slice(it->second, opts.count);
  }
  if (disk_ != nullptr) {
    Tracer::Scope span(tracer, "storage.read");
    std::optional<spectral::EigenBasis> full = disk_->load(key);
    if (full) {
      spectral::EigenBasis out = slice(*full, opts.count);
      std::lock_guard<std::mutex> lock(mutex_);
      tier1_.emplace(key, std::move(*full));
      return out;
    }
  }

  const linalg::SymCsrMatrix* op = nullptr;
  {
    Tracer::Scope span(tracer, "model.assembly");
    op = &cm.operator_matrix(opts.objective, diag);
  }
  spectral::EmbeddingOptions solve_opts = opts;
  solve_opts.count = solve_count;
  spectral::EigenBasis full;
  {
    const bool multilevel =
        opts.solver.strategy == linalg::SolverStrategy::kMultilevel;
    Tracer::Scope span(tracer,
                       multilevel ? "multilevel.solve" : "spectral.eigensolve");
    full = spectral::compute_eigenbasis(*op, solve_opts, diag, nullptr);
  }
  const bool clean =
      full.converged && !full.truncated && !full.budget_exhausted;
  if (disk_ != nullptr && clean) {
    Tracer::Scope span(tracer, "storage.write");
    disk_->store(key, full, core::solver_backend_token(opts.solver.backend),
                 core::solver_strategy_token(opts.solver.strategy),
                 opts.objective == linalg::ObjectiveModel::kUnnormalized
                     ? std::string_view{}
                     : core::objective_model_token(opts.objective));
  }
  spectral::EigenBasis out = slice(full, opts.count);
  std::lock_guard<std::mutex> lock(mutex_);
  ++assemblies_;
  nnz_total_ += op->nnz();
  if (clean) tier1_.emplace(key, std::move(full));
  return out;
}

std::size_t ReplayCache::assemblies() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return assemblies_;
}

std::uint64_t ReplayCache::nnz_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nnz_total_;
}

std::string replay_request(const std::string& wire, ReplayCache& cache,
                           const ParallelConfig& parallel, Tracer* tracer,
                           Diagnostics& diag) {
  Tracer::Scope root(tracer, "service.request");
  service::PartitionRequest req;
  {
    Tracer::Scope span(tracer, "service.parse");
    std::istringstream in(wire);
    std::optional<service::PartitionRequest> parsed =
        service::read_request(in);
    SP_CHECK_INPUT(parsed.has_value(), "replay: empty request frame");
    req = std::move(*parsed);
  }
  core::PipelineConfig cfg = req.pipeline;
  cfg.parallel = parallel;  // a server decision, as in the service
  SP_CHECK_INPUT(cfg.num_eigenvectors > 0 && cfg.num_starts == 1 &&
                     cfg.objective == core::ObjectiveModel::kUnnormalized,
                 "replay covers fixed d, one start and the default objective");

  service::PartitionResponse resp;
  resp.id = req.id;
  resp.k = req.k;
  try {
    const graph::Hypergraph& h = req.graph;
    SP_CHECK_INPUT(h.num_nodes() >= 2,
                   "request graph needs at least 2 vertices");
    SP_CHECK_INPUT(req.k >= 2 && req.k <= h.num_nodes(),
                   "request k out of range");
    model::ModelBuildOptions mbopts;
    mbopts.max_clique_pairs = cfg.max_clique_pairs;
    mbopts.parallel = cfg.parallel;
    const model::CliqueModel cm(h, cfg.net_model, mbopts);
    const spectral::EigenBasis basis =
        cache.compute(cm, cfg.embedding_options(), &diag, tracer);
    SP_REQUIRE(basis.dimension() >= 1, "replay: eigenbasis has no column");

    const double h0 =
        cfg.h_override > 0.0 ? cfg.h_override : core::default_h(basis);
    core::VectorInstance instance;
    {
      Tracer::Scope span(tracer, "core.reduction");
      instance = core::build_scaled_instance(basis, cfg.scaling, h0);
    }
    std::vector<char> scratch;
    core::MeloReadjust readjust;
    const bool do_readjust = cfg.readjust_h && cfg.h_override <= 0.0 &&
                             core::scaling_uses_h(cfg.scaling) &&
                             h.num_nodes() >= 8;
    if (do_readjust) {
      readjust.at = h.num_nodes() / 2;
      readjust.rebuild = [&](const std::vector<graph::NodeId>& members)
          -> core::VectorInstance {
        const graph::Graph* g = nullptr;
        {
          Tracer::Scope span(tracer, "model.graph");
          g = &cm.graph(&diag);
        }
        Tracer::Scope span(tracer, "core.reduction");
        const double degree = set_degree(*g, members, scratch);
        return core::build_scaled_instance(
            basis, cfg.scaling, core::readjusted_h(basis, members, degree));
      };
    }
    part::Ordering ordering;
    {
      Tracer::Scope span(tracer, "core.ordering");
      ordering = core::melo_order_vectors(instance, cfg.ordering_options(0),
                                          do_readjust ? &readjust : nullptr);
    }

    if (req.k == 2) {
      Tracer::Scope span(tracer, "part.split");
      const part::SplitResult split =
          req.balance > 0.0 ? part::best_min_cut_split(h, ordering, req.balance)
                            : part::best_ratio_cut_split(h, ordering);
      SP_CHECK_INPUT(split.feasible, "MELO bipartition: no feasible split");
      const part::Partition p = part::split_to_partition(ordering, split.split);
      resp.cut = split.cut;
      resp.ratio_cut = part::ratio_cut(h, p);
      resp.scaled_cost = part::scaled_cost(h, p);
      resp.assignment = p.assignment();
    } else {
      Tracer::Scope span(tracer, "spectral.dprp");
      spectral::DprpOptions dopts;
      dopts.k = req.k;
      dopts.parallel = cfg.parallel;
      const spectral::DprpResult dp = spectral::dprp_split(h, ordering, dopts);
      resp.scaled_cost = dp.scaled_cost;
      resp.cut = part::cut_nets(h, dp.partition);
      resp.assignment = dp.partition.assignment();
    }
    resp.eigenvectors_used = basis.dimension();
    resp.eigen_converged = basis.converged;
    resp.budget_exhausted = basis.budget_exhausted;
    resp.status = std::string(service::status_token(
        resp.budget_exhausted  ? StatusCode::kBudgetExhausted
        : resp.eigen_converged ? StatusCode::kOk
                               : StatusCode::kDegraded));
  } catch (const Error& e) {
    resp.status = "error";
    resp.error = e.what();
    resp.assignment.clear();
  }

  Tracer::Scope span(tracer, "service.encode");
  std::ostringstream out;
  service::write_response(resp, out);
  return out.str();
}

}  // namespace perfbench
