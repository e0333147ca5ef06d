// bench_report_tool: the kernel microbenchmark. Times the parallel compute
// kernels at 1 thread (the serial reference) and at an oversubscribed
// thread count, and writes the results as JSON: BENCH_kernels.json, the
// committed trajectory baseline. `--smoke true` runs reduced sizes and
// fails unless every counter field is live; point its --out elsewhere.
//
//   $ ./build/bench/bench_report_tool --out BENCH_kernels.json [--scale 1.0] [--threads 8]
//
// On a single-core host the "parallel" numbers measure pure threading
// overhead (speedup <= 1.0 is expected); the host core count (the CPUs
// this process may run on) and the kernel clone that ran (util/simd.h) are
// recorded in the JSON metadata so the baseline is interpretable either way.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/drivers.h"
#include "core/melo.h"
#include "core/reduction.h"
#include "graph/generator.h"
#include "graph/laplacian.h"
#include "linalg/dense.h"
#include "linalg/lanczos.h"
#include "model/assembly.h"
#include "model/clique_models.h"
#include "multilevel/vcycle.h"
#include "part/fm.h"
#include "part/sweep_cut.h"
#include "seed_assembly.h"
#include "service/cache.h"
#include "service/service.h"
#include "spectral/dprp.h"
#include "spectral/embedding.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/timer.h"

using namespace specpart;

namespace {

struct KernelResult {
  std::string name;
  std::string instance;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  // Eigensolver rows also report algorithmic cost per converged pair,
  // from the solver's own FLOP / bytes-moved counters (machine-independent,
  // unlike the wall-clock columns).
  bool has_counters = false;
  std::uint64_t pairs = 0;
  std::uint64_t flops_per_pair = 0;
  std::uint64_t bytes_per_pair = 0;
  // Multilevel rows additionally report the hierarchy shape and the
  // per-level refinement breakdown (coarse-to-fine, finest last).
  bool has_multilevel = false;
  std::size_t levels = 0;
  double coarsening_ratio = 0.0;
  std::vector<multilevel::LevelStats> per_level = {};
  // The sweep_cut row reports the conductance of the normalized-objective
  // sweep-cut split against the FM min-cut split on the same netlist.
  bool has_conductance = false;
  double sweep_phi = 0.0;
  double fm_phi = 0.0;
  // The melo_exact rows report the exact scan's key evaluations (a full
  // scan would do n (n - 1) / 2) and snapshots; 0 = not reported.
  std::uint64_t key_evaluations = 0;
  std::uint64_t reranks = 0;
};

void attach_counters(KernelResult& r, const linalg::LanczosResult& solve) {
  const std::uint64_t pairs = std::max<std::uint64_t>(solve.num_converged, 1);
  r.has_counters = true;
  r.pairs = solve.num_converged;
  r.flops_per_pair = solve.flops / pairs;
  r.bytes_per_pair = solve.matrix_bytes_moved / pairs;
}

graph::Hypergraph make_netlist(std::size_t modules) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 10;
  cfg.seed = 1234;
  return graph::generate_netlist(cfg);
}

spectral::EigenBasis make_basis(const graph::Graph& g, std::size_t d) {
  spectral::EmbeddingOptions eo;
  eo.count = d;
  return spectral::compute_eigenbasis(g, eo);
}

core::VectorInstance make_vectors(const spectral::EigenBasis& basis) {
  return core::build_scaled_instance(basis, core::CoordScaling::kSqrtGap,
                                     core::default_h(basis));
}

graph::Graph clique_graph(const graph::Hypergraph& h) {
  return model::clique_expand(h, model::NetModel::kPartitioningSpecific);
}

/// The service's H readjustment (core::melo_orderings): when half the
/// vertices are chosen, H is re-estimated from their E(C) and the sqrt_gap
/// instance rebuilt.
core::MeloReadjust service_readjust(const graph::Graph& g,
                                    const spectral::EigenBasis& basis) {
  core::MeloReadjust readjust;
  readjust.at = g.num_nodes() / 2;
  readjust.rebuild = [&g, &basis](const std::vector<graph::NodeId>& members) {
    std::vector<char> in(g.num_nodes(), 0);
    for (graph::NodeId v : members) in[v] = 1;
    double degree = 0.0;
    for (const graph::Edge& e : g.edges())
      if (in[e.u] != in[e.v]) degree += e.weight;
    return core::build_scaled_instance(
        basis, core::CoordScaling::kSqrtGap,
        core::readjusted_h(basis, members, degree));
  };
  return readjust;
}

/// CPUs this process may run on (its affinity mask), which can be fewer
/// than std::thread::hardware_concurrency() counts.
std::size_t host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// True when the host object of the JSON at `path` records `isa`.
bool host_records_isa(const std::string& path, const char* isa) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.find("\"host\":") != std::string::npos)
      return line.find(std::string("\"isa\": \"") + isa + "\"") !=
             std::string::npos;
  return false;
}

/// Median wall-clock seconds of `runs` calls of `fn()`.
template <class Fn>
double time_median(Fn&& fn, int runs = 3) {
  std::vector<double> samples;
  for (int rep = 0; rep < runs; ++rep) {
    Timer t;
    fn();
    samples.push_back(t.seconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_report_tool",
          "time the parallel kernels and write BENCH_kernels.json");
  cli.add_flag("out", "BENCH_kernels.json", "output JSON path");
  cli.add_flag("scale", "1.0", "instance size factor");
  cli.add_flag("threads", "0",
               "parallel thread count (0 = min(8, 2 x hardware cores))");
  cli.add_flag("smoke", "false",
               "CI sanity mode: run the warm-size melo_exact row and the "
               "eigensolver rows at reduced "
               "size, then fail unless the host object records the kernel "
               "isa, the melo_exact row reports nonzero key_evaluations "
               "and reranks, the lanczos and multilevel rows "
               "carry every counter field (converged pairs, "
               "flops_per_pair, bytes_per_pair), all nonzero, the "
               "multilevel row reports a live hierarchy (levels, "
               "coarsening_ratio, per_level), the cache_disk_warm row "
               "served the tier-2 read bit-identically and faster than the "
               "cold compute, and the sweep_cut row's normalized-objective "
               "conductance beat the FM split's");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const bool smoke = cli.get_bool("smoke");
    const double scale =
        smoke ? std::min(cli.get_double("scale"), 0.3) : cli.get_double("scale");
    const std::size_t cores = host_cpus();
    const char* isa = simd::isa_name(simd::active_isa());
    std::size_t threads = static_cast<std::size_t>(cli.get_int("threads"));
    if (threads == 0) threads = std::min<std::size_t>(8, 2 * cores);
    const ParallelConfig serial;
    const ParallelConfig par = ParallelConfig::with_threads(threads);

    auto scaled = [&](std::size_t n) {
      return std::max<std::size_t>(64, static_cast<std::size_t>(
                                           static_cast<double>(n) * scale));
    };
    std::vector<KernelResult> results;

    {
      // The warm_mix ordering: n=1000, d=10, sqrt_gap, with the service's
      // H readjust at n/2. About a millisecond, so the median of 15 runs.
      const std::size_t n = scaled(1000);
      const graph::Hypergraph h = make_netlist(n);
      const graph::Graph g = clique_graph(h);
      const spectral::EigenBasis basis = make_basis(g, 10);
      const core::VectorInstance inst = make_vectors(basis);
      const core::MeloReadjust readjust = service_readjust(g, basis);
      core::MeloOrderingOptions opts;
      KernelResult r{"melo_exact", "n=" + std::to_string(n) +
                                       " d=10 readjust=n/2"};
      core::MeloOrderingStats stats;
      core::melo_order_vectors(inst, opts, &readjust, &stats);
      r.key_evaluations = stats.key_evaluations;
      r.reranks = stats.reranks;
      opts.parallel = serial;
      r.serial_seconds = time_median(
          [&] { core::melo_order_vectors(inst, opts, &readjust); }, 15);
      opts.parallel = par;
      r.parallel_seconds = time_median(
          [&] { core::melo_order_vectors(inst, opts, &readjust); }, 15);
      results.push_back(r);
    }

    if (!smoke) {
      const std::size_t n = scaled(5000);
      const core::VectorInstance inst =
          make_vectors(make_basis(clique_graph(make_netlist(n)), 10));
      core::MeloOrderingOptions opts;
      KernelResult r{"melo_exact", "n=" + std::to_string(n) + " d=10"};
      core::MeloOrderingStats stats;
      core::melo_order_vectors(inst, opts, nullptr, &stats);
      r.key_evaluations = stats.key_evaluations;
      r.reranks = stats.reranks;
      opts.parallel = serial;
      r.serial_seconds =
          time_median([&] { core::melo_order_vectors(inst, opts); });
      opts.parallel = par;
      r.parallel_seconds =
          time_median([&] { core::melo_order_vectors(inst, opts); });
      results.push_back(r);
    }

    {
      const std::size_t n = scaled(2000);
      const linalg::SymCsrMatrix q = graph::build_laplacian(model::clique_expand(
          make_netlist(n), model::NetModel::kPartitioningSpecific));
      linalg::LanczosOptions opts;
      opts.num_eigenpairs = 10;
      KernelResult r{"lanczos", "n=" + std::to_string(n) + " d=10"};
      attach_counters(r, linalg::lanczos_smallest(q, opts));
      opts.parallel = serial;
      r.serial_seconds = time_median([&] { linalg::lanczos_smallest(q, opts); });
      opts.parallel = par;
      r.parallel_seconds =
          time_median([&] { linalg::lanczos_smallest(q, opts); });
      results.push_back(r);
    }

    {
      // Multilevel V-cycle against the flat solver, same matrix, same 10
      // pairs. Like the "assembly" row this reuses the two timing columns
      // for an algorithmic comparison, so `speedup` records the
      // multilevel-vs-flat ratio (>= 3x at n=20000; BENCH_kernels.json
      // holds the current value). Serial is the single-thread end-to-end
      // eigensolve stage under strategy=flat (spectral::compute_eigenbasis,
      // including the escalation chain a cold solve actually pays).
      // Parallel is the V-cycle that stage runs under strategy=multilevel
      // (same count and seed), timed directly three times: the median run
      // supplies the seconds, the counters, the hierarchy shape and the
      // per-level sweep timings, so the per-level seconds are part of the
      // row total.
      const std::size_t n = smoke ? scaled(2000) : scaled(20000);
      const linalg::SymCsrMatrix q = graph::build_laplacian(model::clique_expand(
          make_netlist(n), model::NetModel::kPartitioningSpecific));

      KernelResult r{"multilevel", "n=" + std::to_string(n) +
                                       " d=10 serial=flat parallel=vcycle"};
      spectral::EmbeddingOptions eflat;
      eflat.count = 10;
      eflat.parallel = serial;
      r.serial_seconds =
          time_median([&] { spectral::compute_eigenbasis(q, eflat); });
      struct VcycleRun {
        double seconds = 0.0;
        linalg::LanczosResult solve;
        multilevel::MultilevelStats stats;
      };
      std::vector<VcycleRun> runs(3);
      for (VcycleRun& run : runs) {
        Timer t;
        run.solve = multilevel::multilevel_solve_smallest(
            q, eflat.count, eflat.seed, serial, nullptr, &run.stats);
        run.seconds = t.seconds();
      }
      std::sort(runs.begin(), runs.end(),
                [](const VcycleRun& a, const VcycleRun& b) {
                  return a.seconds < b.seconds;
                });
      const VcycleRun& median = runs[1];
      attach_counters(r, median.solve);
      r.parallel_seconds = median.seconds;
      r.has_multilevel = true;
      r.levels = median.stats.levels;
      r.coarsening_ratio = median.stats.coarsening_ratio;
      r.per_level = median.stats.per_level;
      results.push_back(r);

      // Conventional serial-vs-threaded pair for the refinement stage
      // (Chebyshev filter + Rayleigh-Ritz sweeps), which dominates the
      // V-cycle and is the part built on the fixed-block parallel kernels.
      const auto refine_median = [&](const ParallelConfig& p) {
        std::vector<double> samples;
        for (int rep = 0; rep < 3; ++rep) {
          multilevel::MultilevelStats s;
          multilevel::multilevel_solve_smallest(q, eflat.count, eflat.seed, p,
                                                nullptr, &s);
          samples.push_back(s.refine_seconds);
        }
        std::sort(samples.begin(), samples.end());
        return samples[1];
      };
      KernelResult rr{"multilevel_refine", "n=" + std::to_string(n) + " d=10"};
      rr.has_multilevel = true;
      rr.levels = median.stats.levels;
      rr.coarsening_ratio = median.stats.coarsening_ratio;
      rr.serial_seconds = refine_median(serial);
      rr.parallel_seconds = refine_median(par);
      results.push_back(rr);
    }

    if (!smoke) {
      const std::size_t n = scaled(20000);
      const linalg::SymCsrMatrix q = graph::build_laplacian(model::clique_expand(
          make_netlist(n), model::NetModel::kPartitioningSpecific));
      linalg::Vec x(q.size(), 1.0), y;
      const int reps = 50;
      KernelResult r{"spmv_x" + std::to_string(reps),
                     "n=" + std::to_string(n)};
      r.serial_seconds = time_median([&] {
        for (int i = 0; i < reps; ++i) q.matvec(x, y);
      });
      r.parallel_seconds = time_median([&] {
        for (int i = 0; i < reps; ++i) q.matvec(x, y, par);
      });
      results.push_back(r);

      // The fused sparse x dense-panel kernel the V-cycle's refinement
      // sweeps run on: one sweep advances a 10-wide panel, so compare
      // against 10 spmv sweeps (same reps) for the per-column bandwidth
      // amortization.
      linalg::Panel px(q.size(), 10);
      for (std::size_t row = 0; row < q.size(); ++row)
        for (std::size_t c = 0; c < 10; ++c) px.at(row, c) = 1.0;
      linalg::Panel py(q.size(), 10);
      KernelResult rp{"spmm_x" + std::to_string(reps),
                      "n=" + std::to_string(n) + " b=10"};
      rp.serial_seconds = time_median([&] {
        for (int i = 0; i < reps; ++i) q.spmm(px, py);
      });
      rp.parallel_seconds = time_median([&] {
        for (int i = 0; i < reps; ++i) q.spmm(px, py, par);
      });
      results.push_back(rp);
    }

    if (!smoke) {
      const std::size_t n = scaled(1500);
      const graph::Hypergraph h = make_netlist(n);
      const auto runs = core::melo_orderings(h, core::MeloOptions{});
      spectral::DprpOptions opts;
      opts.k = 10;
      KernelResult r{"dprp", "n=" + std::to_string(n) + " k=10"};
      opts.parallel = serial;
      r.serial_seconds =
          time_median([&] { spectral::dprp_split(h, runs[0].ordering, opts); });
      opts.parallel = par;
      r.parallel_seconds =
          time_median([&] { spectral::dprp_split(h, runs[0].ordering, opts); });
      results.push_back(r);
    }

    if (!smoke) {
      // Sparse data plane: cold hypergraph -> Laplacian build. The
      // "assembly" row reuses the serial/parallel columns for a different
      // comparison — serial_seconds is the seed repo's triplet path
      // (replicated in bench/seed_assembly.h; the library no longer
      // contains it) and parallel_seconds is the fused single-thread
      // counting-sort build, so `speedup` records the fused-vs-seed
      // cold-build ratio the data plane is accountable for (>= 2x).
      // "assembly_mt" is the conventional pair: fused serial vs fused
      // threaded.
      const std::size_t n = scaled(20000);
      const graph::Hypergraph h = make_netlist(n);
      KernelResult r{"assembly",
                     "n=" + std::to_string(n) + " serial=seed parallel=fused"};
      r.serial_seconds = time_median([&] {
        bench::seed_clique_laplacian(h,
                                     model::NetModel::kPartitioningSpecific);
      });
      model::ModelBuildOptions fused;
      fused.parallel = serial;
      r.parallel_seconds = time_median([&] {
        model::build_clique_laplacian(
            h, model::NetModel::kPartitioningSpecific, fused);
      });
      results.push_back(r);

      KernelResult rt{"assembly_mt", "n=" + std::to_string(n) + " fused"};
      rt.serial_seconds = r.parallel_seconds;
      fused.parallel = par;
      rt.parallel_seconds = time_median([&] {
        model::build_clique_laplacian(
            h, model::NetModel::kPartitioningSpecific, fused);
      });
      results.push_back(rt);
    }

    if (!smoke) {
      // Service layer: a warm 24-request batch through the bounded queue,
      // 1 worker (serial reference) vs `threads` workers. Warm so it
      // measures the serving engine, not the one-off eigensolves.
      const std::size_t n = scaled(600);
      std::vector<service::PartitionRequest> batch;
      for (std::size_t i = 0; i < 24; ++i) {
        service::PartitionRequest req;
        req.graph = make_netlist(n + 16 * (i % 3));
        req.pipeline.num_eigenvectors = 10;
        batch.push_back(std::move(req));
      }
      const auto run_batch = [&](service::PartitionService& svc) {
        std::vector<std::future<service::PartitionResponse>> futs;
        futs.reserve(batch.size());
        for (const auto& req : batch) futs.push_back(svc.submit(req));
        for (auto& fut : futs) fut.get();
      };
      service::ServiceOptions one;
      one.num_workers = 1;
      one.parallel = serial;
      service::ServiceOptions many = one;
      many.num_workers = threads;
      service::PartitionService svc1(one);
      service::PartitionService svcN(many);
      run_batch(svc1);  // warm both caches
      run_batch(svcN);
      KernelResult r{"service_warm",
                     "reqs=24 n=" + std::to_string(n)};
      r.serial_seconds = time_median([&] { run_batch(svc1); });
      r.parallel_seconds = time_median([&] { run_batch(svcN); });
      results.push_back(r);
    }

    {
      // Tier-2 persistent basis store: a disk-warm read against the cold
      // eigensolve it replaces. Like the "assembly" row this reuses the
      // two timing columns for an algorithmic comparison: serial_seconds
      // is one cold compute through a fresh EmbeddingCache with the tier
      // configured (clique assembly + eigensolve + write-behind spill),
      // parallel_seconds is the median disk-warm serve through a fresh
      // cache over the same directory (rebuild-on-open scan + header
      // validation + chunk reads + promotion), so `speedup` records the
      // warm-vs-cold serving ratio the tier is accountable for. Bit-identity of the warm basis
      // against the cold one and warm < cold are enforced inline — a
      // violation fails the whole run, smoke or full.
      const std::size_t n = smoke ? scaled(2000) : scaled(20000);
      const graph::Hypergraph h = make_netlist(n);
      const model::CliqueModel cm(h, model::NetModel::kPartitioningSpecific);
      namespace fs = std::filesystem;
      const fs::path dir =
          fs::temp_directory_path() /
          ("specpart_bench_tier2_" + std::to_string(::getpid()));
      std::error_code ec;
      fs::remove_all(dir, ec);

      spectral::EmbeddingOptions eo;
      eo.count = 10;
      eo.parallel = serial;
      service::EmbeddingCacheOptions copts;
      copts.cache_dir = dir.string();

      KernelResult r{"cache_disk_warm", "n=" + std::to_string(n) +
                                            " d=10 serial=cold "
                                            "parallel=diskwarm"};
      spectral::EigenBasis cold;
      {
        service::EmbeddingCache cache(copts);
        Timer t;
        cold = cache.compute(cm, eo, nullptr, nullptr);
        r.serial_seconds = t.seconds();
      }
      spectral::EigenBasis warm;
      r.parallel_seconds = time_median([&] {
        service::EmbeddingCache cache(copts);  // fresh tier 1, same tier 2
        warm = cache.compute(cm, eo, nullptr, nullptr);
      });
      fs::remove_all(dir, ec);

      bool identical = warm.dimension() == cold.dimension() &&
                       warm.n == cold.n && cold.dimension() > 0;
      const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
      for (std::size_t j = 0; identical && j < cold.dimension(); ++j) {
        identical = bits(warm.values[j]) == bits(cold.values[j]);
        for (std::size_t i = 0; identical && i < cold.n; ++i)
          identical = bits(warm.vectors.at(i, j)) == bits(cold.vectors.at(i, j));
      }
      if (!identical) {
        std::fprintf(stderr,
                     "bench_report_tool: cache_disk_warm: disk-warm basis is "
                     "not bit-identical to the cold compute\n");
        return 1;
      }
      if (r.parallel_seconds >= r.serial_seconds) {
        std::fprintf(stderr,
                     "bench_report_tool: cache_disk_warm: tier-2 read "
                     "(%.1f ms) is not faster than the cold compute "
                     "(%.1f ms)\n",
                     r.parallel_seconds * 1e3, r.serial_seconds * 1e3);
        return 1;
      }
      results.push_back(r);
    }

    {
      // Objective-model quality row: the conductance phi of the
      // normalized-objective sweep-cut split against the FM min-cut
      // split's phi on the same mixed netlist, at the same balance floor.
      // Like the "assembly" row this reuses the two timing columns for a
      // cross-method comparison: serial_seconds is the full normalized
      // melo pipeline (eigensolve on D^{-1/2} L D^{-1/2} + sweep cut) and
      // parallel_seconds is the FM pass, so `speedup` is not a threading
      // ratio here. The quality contract — sweep phi <= FM phi — is
      // enforced inline; a violation fails the whole run, smoke or full.
      const std::size_t n = smoke ? scaled(1500) : scaled(5000);
      const graph::Hypergraph h = make_netlist(n);
      KernelResult r{"sweep_cut", "n=" + std::to_string(n) +
                                      " d=10 serial=sweep parallel=fm"};
      core::MeloOptions m;
      m.num_eigenvectors = 10;
      m.num_starts = 3;
      m.objective = core::ObjectiveModel::kNormalizedSymmetric;
      m.parallel = serial;
      {
        Timer t;
        const core::MeloBipartitionResult res =
            core::melo_bipartition(h, m, 0.10);
        r.serial_seconds = t.seconds();
        r.sweep_phi = res.conductance;
      }
      {
        part::FmOptions fo;
        fo.balance = {0.10, 0.90};
        Timer t;
        const part::FmResult res = part::fm_bipartition(h, fo);
        r.parallel_seconds = t.seconds();
        r.fm_phi = part::conductance(h, res.partition);
      }
      r.has_conductance = true;
      if (!(r.sweep_phi > 0.0) || !(r.fm_phi > 0.0) ||
          r.sweep_phi > r.fm_phi) {
        std::fprintf(stderr,
                     "bench_report_tool: sweep_cut: normalized sweep-cut "
                     "conductance %.6g does not beat the FM split's %.6g\n",
                     r.sweep_phi, r.fm_phi);
        return 1;
      }
      results.push_back(r);
    }

    const std::string out = cli.get("out");
    std::FILE* f = std::fopen(out.c_str(), "w");
    SP_CHECK_INPUT(f != nullptr, "cannot open --out file " + out);
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"specpart-bench-kernels-v2\",\n");
    std::fprintf(f,
                 "  \"host\": {\"cores\": %zu, \"parallel_threads\": %zu, "
                 "\"isa\": \"%s\"},\n",
                 cores, threads, isa);
    std::fprintf(f, "  \"scale\": %g,\n", scale);
    std::fprintf(f, "  \"kernels\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const KernelResult& r = results[i];
      const double speedup = r.parallel_seconds > 0.0
                                 ? r.serial_seconds / r.parallel_seconds
                                 : 0.0;
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"instance\": \"%s\", "
                   "\"serial_seconds\": %.6f, \"parallel_seconds\": %.6f, "
                   "\"speedup\": %.3f",
                   r.name.c_str(), r.instance.c_str(), r.serial_seconds,
                   r.parallel_seconds, speedup);
      if (r.has_counters)
        std::fprintf(f,
                     ", \"converged_pairs\": %llu, \"flops_per_pair\": %llu, "
                     "\"bytes_per_pair\": %llu",
                     static_cast<unsigned long long>(r.pairs),
                     static_cast<unsigned long long>(r.flops_per_pair),
                     static_cast<unsigned long long>(r.bytes_per_pair));
      if (r.has_conductance)
        std::fprintf(f, ", \"sweep_phi\": %.6f, \"fm_phi\": %.6f",
                     r.sweep_phi, r.fm_phi);
      if (r.key_evaluations > 0)
        std::fprintf(f, ", \"key_evaluations\": %llu, \"reranks\": %llu",
                     static_cast<unsigned long long>(r.key_evaluations),
                     static_cast<unsigned long long>(r.reranks));
      if (r.has_multilevel) {
        std::fprintf(f, ", \"levels\": %zu, \"coarsening_ratio\": %.2f",
                     r.levels, r.coarsening_ratio);
        if (!r.per_level.empty()) {
          std::fprintf(f, ", \"per_level\": [");
          for (std::size_t l = 0; l < r.per_level.size(); ++l) {
            const multilevel::LevelStats& ls = r.per_level[l];
            std::fprintf(f,
                         "{\"n\": %zu, \"sweeps\": %zu, \"relative_residual\": "
                         "%.3e, \"seconds\": %.6f}%s",
                         ls.n, ls.sweeps, ls.relative_residual, ls.seconds,
                         l + 1 < r.per_level.size() ? ", " : "");
          }
          std::fprintf(f, "]");
        }
      }
      std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
      std::printf("%-13s %-16s serial %8.1f ms   %zu threads %8.1f ms   "
                  "speedup %.2fx",
                  r.name.c_str(), r.instance.c_str(), r.serial_seconds * 1e3,
                  threads, r.parallel_seconds * 1e3, speedup);
      if (r.has_counters)
        std::printf("   %llu pairs, %.2f MB/pair",
                    static_cast<unsigned long long>(r.pairs),
                    static_cast<double>(r.bytes_per_pair) / 1e6);
      if (r.has_conductance)
        std::printf("   phi sweep %.4f vs fm %.4f", r.sweep_phi, r.fm_phi);
      if (r.key_evaluations > 0)
        std::printf("   %llu key evaluations, %llu reranks",
                    static_cast<unsigned long long>(r.key_evaluations),
                    static_cast<unsigned long long>(r.reranks));
      std::printf("\n");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (host: %zu core(s), %s kernels)\n", out.c_str(),
                cores, isa);

    if (smoke) {
      // Timings mean little without the clone that produced them.
      if (!host_records_isa(out, isa)) {
        std::fprintf(stderr,
                     "bench_report_tool: --smoke: host object of %s does not "
                     "record \"isa\": \"%s\"\n",
                     out.c_str(), isa);
        return 1;
      }
      // CI gate: the eigensolver rows must carry live counters. A zero
      // here means the solver stopped reporting its algorithmic cost and
      // the committed baseline would silently rot.
      for (const char* name : {"lanczos", "multilevel"}) {
        if (std::none_of(results.begin(), results.end(),
                         [name](const KernelResult& r) {
                           return r.name == name && r.has_counters;
                         })) {
          std::fprintf(stderr,
                       "bench_report_tool: --smoke: eigensolver row %s "
                       "missing or without counter fields\n",
                       name);
          return 1;
        }
      }
      for (const KernelResult& r : results) {
        if (!r.has_counters) continue;
        if (r.pairs == 0 || r.flops_per_pair == 0 || r.bytes_per_pair == 0) {
          std::fprintf(stderr,
                       "bench_report_tool: --smoke: kernel %s has a zero "
                       "counter (pairs=%llu flops_per_pair=%llu "
                       "bytes_per_pair=%llu)\n",
                       r.name.c_str(),
                       static_cast<unsigned long long>(r.pairs),
                       static_cast<unsigned long long>(r.flops_per_pair),
                       static_cast<unsigned long long>(r.bytes_per_pair));
          return 1;
        }
      }
      // The multilevel row must additionally carry a live hierarchy: a
      // missing row or a degenerate ratio means the V-cycle silently
      // degraded to a flat solve and the committed baseline would lie.
      bool multilevel_ok = false;
      for (const KernelResult& r : results) {
        if (r.name != "multilevel") continue;
        multilevel_ok = r.has_counters && r.pairs > 0 && r.levels > 0 &&
                        r.coarsening_ratio > 1.0 && !r.per_level.empty();
        if (!multilevel_ok)
          std::fprintf(stderr,
                       "bench_report_tool: --smoke: multilevel row is "
                       "degenerate (pairs=%llu levels=%zu ratio=%.2f "
                       "per_level=%zu)\n",
                       static_cast<unsigned long long>(r.pairs), r.levels,
                       r.coarsening_ratio, r.per_level.size());
      }
      if (!multilevel_ok) {
        if (!std::any_of(results.begin(), results.end(),
                         [](const KernelResult& r) {
                           return r.name == "multilevel";
                         }))
          std::fprintf(stderr,
                       "bench_report_tool: --smoke: multilevel row missing\n");
        return 1;
      }
      // The tier-2 row must have run and won: bit-identity and warm<cold
      // are already enforced inline above, so all that can fail here is
      // the row silently disappearing from the bench.
      bool tier2_ok = false;
      for (const KernelResult& r : results)
        if (r.name == "cache_disk_warm")
          tier2_ok = r.serial_seconds > 0.0 && r.parallel_seconds > 0.0 &&
                     r.parallel_seconds < r.serial_seconds;
      if (!tier2_ok) {
        std::fprintf(stderr,
                     "bench_report_tool: --smoke: cache_disk_warm row "
                     "missing or degenerate\n");
        return 1;
      }
      // The warm-size melo_exact row must report live work counters: a
      // zero means the exact scan stopped counting (or stopped running).
      bool melo_ok = false;
      for (const KernelResult& r : results)
        if (r.name == "melo_exact")
          melo_ok = r.key_evaluations > 0 && r.reranks > 0;
      if (!melo_ok) {
        std::fprintf(stderr,
                     "bench_report_tool: --smoke: melo_exact row missing or "
                     "with a zero counter (key_evaluations, reranks)\n");
        return 1;
      }
      // The sweep_cut row's quality contract (sweep phi <= FM phi, both
      // positive) is enforced inline above; here only its presence can
      // regress.
      bool sweep_ok = false;
      for (const KernelResult& r : results)
        if (r.name == "sweep_cut")
          sweep_ok = r.has_conductance && r.sweep_phi > 0.0 &&
                     r.sweep_phi <= r.fm_phi;
      if (!sweep_ok) {
        std::fprintf(stderr,
                     "bench_report_tool: --smoke: sweep_cut row missing or "
                     "degenerate\n");
        return 1;
      }
      std::printf("smoke: host isa recorded (%s), counter fields present "
                  "and nonzero on the lanczos and multilevel rows, "
                  "multilevel hierarchy live "
                  "(levels/coarsening_ratio/per_level), melo_exact "
                  "counters nonzero, tier-2 disk-warm "
                  "read bit-identical and faster than cold, sweep-cut phi "
                  "beat the FM split\n",
                  isa);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_report_tool: %s\n", e.what());
    return 1;
  }
}
