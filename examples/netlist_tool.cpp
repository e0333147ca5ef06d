// netlist_tool: partition a netlist file from the command line.
//
//   $ ./netlist_tool circuit.hgr --algo melo --k 2 --out parts.txt
//
// Reads hMETIS .hgr (or ACM/SIGDA .netD with --format netd), partitions
// with the chosen algorithm, reports quality, and optionally writes the
// cluster assignment (one id per line).
#include <cstdio>
#include <sstream>

#include "core/drivers.h"
#include "graph/netlist_io.h"
#include "part/fm.h"
#include "service/protocol.h"
#include "service/service.h"
#include "part/objectives.h"
#include "part/report.h"
#include "spectral/dprp.h"
#include "spectral/rsb.h"
#include "spectral/sb.h"
#include "util/budget.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/stringutil.h"

using namespace specpart;

int main(int argc, char** argv) {
  Cli cli("netlist_tool", "partition an .hgr/.netD netlist file");
  cli.add_flag("format", "hgr", "input format: hgr | netd");
  cli.add_flag("algo", "melo", "algorithm: melo | sb | rsb | fm");
  cli.add_flag("k", "2", "number of clusters (melo/rsb; sb/fm are 2-way)");
  cli.add_flag("d", "10", "eigenvectors for melo");
  cli.add_flag("balance", "0.45", "min cluster fraction for 2-way cuts");
  cli.add_flag("out", "", "write assignment to this file");
  cli.add_flag("report", "false", "print the full quality report");
  cli.add_flag("json", "false",
               "machine-readable output: print one JSON object with the same "
               "fields as a service response (melo only)");
  cli.add_flag("diag", "false", "print per-stage diagnostics after the run");
  cli.add_flag("deadline", "0",
               "compute budget in seconds (0 = unlimited); on exhaustion the "
               "best partition found so far is returned");
  cli.add_flag("threads", "0",
               "compute-kernel threads (0 = auto: $SPECPART_THREADS or "
               "hardware concurrency, the server's default; 1 = serial "
               "reference)");
  cli.add_flag("objective", "unnormalized",
               "spectral objective for melo: " + core::objective_model_tokens() +
                   " (normalized = conductance sweep cut)");
  cli.add_flag("multilevel", "false",
               "melo: solve the eigenbasis through the coarsen/solve/refine "
               "V-cycle (falls back to a flat solve if refinement cannot "
               "certify the basis)");
  cli.add_flag("warm", "false",
               "pre-warm mode: compute and persist the eigenbasis of every "
               "listed netlist into --cache-dir, so a shard can serve warm "
               "before taking traffic (melo pipeline defaults)");
  cli.add_flag("cache-dir", "",
               "persistent basis-store directory for --warm");
  cli.add_flag("disk-budget-mb", "1024",
               "--warm: tier-2 store byte budget in MiB");
  try {
    if (!cli.parse(argc, argv)) return 0;

    if (cli.get_bool("warm")) {
      // Offline pre-warm: run each netlist through the exact serving path
      // (PartitionService with the tier-2 store configured), so the
      // persisted entries carry the same content keys live wire traffic
      // will look up — parity by construction, like --json.
      SP_CHECK_INPUT(!cli.get("cache-dir").empty(),
                     "--warm requires --cache-dir DIR");
      SP_CHECK_INPUT(!cli.positionals().empty(),
                     "usage: netlist_tool --warm --cache-dir DIR <file>...");
      service::ServiceOptions sopts;
      sopts.num_workers = 0;  // execute() runs on this thread
      sopts.cache.cache_dir = cli.get("cache-dir");
      sopts.cache.disk_budget_bytes =
          static_cast<std::size_t>(cli.get_int("disk-budget-mb")) << 20;
      sopts.deadline_seconds = cli.get_double("deadline");
      sopts.parallel = ParallelConfig::with_threads(
          static_cast<std::size_t>(cli.get_int("threads")));
      service::PartitionService svc(sopts);
      int failures = 0;
      for (const std::string& file : cli.positionals()) {
        service::PartitionRequest req;
        req.id = file;
        req.k = static_cast<std::uint32_t>(cli.get_int("k"));
        req.balance = cli.get_double("balance");
        req.graph = cli.get("format") == "netd"
                        ? graph::read_netd_file(file)
                        : graph::read_hgr_file(file);
        req.pipeline.num_eigenvectors =
            static_cast<std::size_t>(cli.get_int("d"));
        req.pipeline.num_starts = 3;
        req.pipeline.objective =
            core::parse_objective_model(cli.get("objective"));
        if (cli.get_bool("multilevel"))
          req.pipeline.solver.strategy = core::SolverStrategy::kMultilevel;

        Diagnostics warm_diag;
        const service::PartitionResponse resp = svc.execute(req, &warm_diag);
        const auto ran_stage = [&warm_diag](const char* name) {
          for (const StageStats& s : warm_diag.stages())
            if (s.name == name) return true;
          return false;
        };
        const bool was_warm = ran_stage("embedding_cache_disk_hit") ||
                              ran_stage("embedding_cache_hit");
        if (!resp.ok()) ++failures;
        std::printf("%s: %s (%s)\n", file.c_str(),
                    resp.ok() ? (was_warm ? "already warm" : "warmed")
                              : "FAILED",
                    resp.ok() ? resp.status.c_str() : resp.error.c_str());
      }
      const service::MetricsSnapshot snap = svc.snapshot();
      std::printf("store %s: %zu entries, %zu bytes on disk, %llu spilled "
                  "this run (%llu failed)\n",
                  cli.get("cache-dir").c_str(), snap.storage.disk_entries,
                  snap.storage.bytes_on_disk,
                  static_cast<unsigned long long>(snap.storage.spills),
                  static_cast<unsigned long long>(snap.storage.spill_failures));
      return failures == 0 ? 0 : 1;
    }

    SP_CHECK_INPUT(cli.positionals().size() == 1,
                   "usage: netlist_tool <file> [flags]; see --help");
    const std::string path = cli.positionals()[0];
    Diagnostics diag;
    const graph::Hypergraph h = cli.get("format") == "netd"
                                    ? graph::read_netd_file(path)
                                    : graph::read_hgr_file(path, &diag);
    const bool json = cli.get_bool("json");
    if (!json)
      std::printf("%s: %zu modules, %zu nets, %zu pins\n", path.c_str(),
                  h.num_nodes(), h.num_nets(), h.num_pins());

    const std::string algo = cli.get("algo");
    const auto k = static_cast<std::uint32_t>(cli.get_int("k"));
    const double balance = cli.get_double("balance");

    if (json) {
      // Route through PartitionService::execute so this output is the same
      // object (same fields, same values) a specpart_server would return
      // for the equivalent request — parity by construction. A one-shot
      // run stores nothing (zero cache budget); the budget changes what
      // is kept, never the response.
      SP_CHECK_INPUT(algo == "melo", "--json supports --algo melo only");
      service::ServiceOptions sopts;
      sopts.num_workers = 0;  // execute() runs on this thread
      sopts.cache.max_bytes = 0;
      sopts.deadline_seconds = cli.get_double("deadline");
      sopts.parallel = ParallelConfig::with_threads(
          static_cast<std::size_t>(cli.get_int("threads")));
      service::PartitionService svc(sopts);

      service::PartitionRequest req;
      req.id = path;
      req.k = k;
      req.balance = balance;
      req.graph = h;
      req.pipeline.num_eigenvectors =
          static_cast<std::size_t>(cli.get_int("d"));
      req.pipeline.num_starts = 3;
      req.pipeline.objective = core::parse_objective_model(cli.get("objective"));
      if (cli.get_bool("multilevel"))
        req.pipeline.solver.strategy = core::SolverStrategy::kMultilevel;

      const service::PartitionResponse resp = svc.execute(req);
      std::printf("%s\n", service::response_to_json(resp).c_str());
      const std::string out = cli.get("out");
      if (!out.empty() && resp.ok())
        graph::write_partition_file(resp.assignment, out);
      return resp.status == "error" ? 1 : 0;
    }

    ComputeBudget budget;
    const double deadline = cli.get_double("deadline");
    ParallelConfig parallel;
    parallel.num_threads = static_cast<std::size_t>(cli.get_int("threads"));
    part::SolverInfo solver;
    solver.threads = parallel.threads();

    part::Partition p;
    if (algo == "melo") {
      core::MeloOptions m;
      m.num_eigenvectors = static_cast<std::size_t>(cli.get_int("d"));
      m.num_starts = 3;
      m.objective = core::parse_objective_model(cli.get("objective"));
      if (cli.get_bool("multilevel"))
        m.solver.strategy = core::SolverStrategy::kMultilevel;
      m.diagnostics = &diag;
      m.parallel = parallel;
      if (deadline > 0.0) {
        budget = ComputeBudget::with_deadline(deadline);
        m.budget = &budget;
      }
      solver.present = true;
      solver.eigenvectors_requested = m.num_eigenvectors;
      if (k == 2) {
        const auto r = core::melo_bipartition(h, m, balance);
        solver.eigen_converged = r.eigen_converged;
        solver.eigenvectors_used = r.eigenvectors_used;
        solver.budget_exhausted = r.budget_exhausted;
        if (m.objective == core::ObjectiveModel::kNormalizedSymmetric)
          std::printf("conductance = %.6g\n", r.conductance);
        p = r.partition;
      } else {
        const auto r = core::melo_multiway(h, k, m);
        solver.eigen_converged = r.eigen_converged;
        solver.eigenvectors_used = r.eigenvectors_used;
        solver.budget_exhausted = r.budget_exhausted;
        p = r.partition;
      }
      solver.fallbacks = diag.total_fallbacks();
    } else if (algo == "sb") {
      spectral::SbOptions so;
      so.min_fraction = balance;
      p = spectral::spectral_bipartition(h, so).partition;
    } else if (algo == "rsb") {
      p = spectral::rsb_partition(h, k, spectral::RsbOptions{});
    } else if (algo == "fm") {
      part::FmOptions fo;
      fo.balance = {balance, 1.0 - balance};
      if (deadline > 0.0) {
        budget = ComputeBudget::with_deadline(deadline);
        fo.budget = &budget;
      }
      StageTimerScope fm_scope(&diag, "fm");
      const auto r = part::fm_bipartition(h, fo);
      if (r.budget_exhausted) diag.mark_budget_exhausted("fm");
      p = r.partition;
    } else {
      throw Error("unknown --algo '" + algo + "'");
    }

    std::printf("algorithm %s: cut nets = %.0f", algo.c_str(),
                part::cut_nets(h, p));
    if (p.k() >= 2) std::printf(", scaled cost = %.3g", part::scaled_cost(h, p));
    std::printf(", cluster sizes =");
    for (std::uint32_t c = 0; c < p.k(); ++c)
      std::printf(" %zu", p.cluster_size(c));
    std::printf("\n");

    if (cli.get_bool("report")) {
      part::QualityReport qr = part::evaluate(h, p);
      qr.solver = solver;
      std::ostringstream report_out;
      part::print_report(qr, report_out);
      std::fputs(report_out.str().c_str(), stdout);
    }
    if (cli.get_bool("diag")) std::fputs(diag.to_string().c_str(), stdout);

    const std::string out = cli.get("out");
    if (!out.empty()) {
      graph::write_partition_file(p.assignment(), out);
      std::printf("assignment written to %s\n", out.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "netlist_tool: %s\n", e.what());
    return 1;
  }
}
