// perfbench: end-to-end request benchmark of the partitioning service.
//
// Each client thread is a closed-loop caller, the way a CAD flow uses the
// partitioner: it hands one REQUEST frame's wire bytes to an in-process
// PartitionService (read_request -> submit -> write_response), waits for
// the response bytes, and only then sends its next request. Latency runs
// from the request bytes handed in to the response bytes done. Every
// response passes the correctness gate (gate.h) before its numbers count,
// and every workload asserts that it exercises what it claims to.
//
// --trace 1 also replays each request, right after the service answered
// it, through replay.h's traced copy of the pipeline, and reports the
// per-layer numbers from those spans instead of the end-to-end metrics.
//
// Normally started through perfbench/run.py, which builds this binary and
// passes the workload parameters recorded in perfbench/setup.json.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gate.h"
#include "replay.h"
#include "service/protocol.h"
#include "service/service.h"
#include "trace.h"
#include "util/error.h"
#include "util/stringutil.h"
#include "util/timer.h"
#include "workload.h"

namespace fs = std::filesystem;
using namespace specpart;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Closed-loop clients, service workers and kernel threads per worker. A
/// run refuses to start when their product exceeds the host's CPUs.
constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kKernelThreads = 1;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
/// The traced span total may differ from the untraced latency by this
/// share plus kReconcileSlackS: gated over the run, counted per request.
constexpr double kReconcileBound = 0.25;
constexpr double kReconcileSlackS = 0.01;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  /// Self-test hook: flips one assignment entry of the first response
  /// before it is checked, so the gate must fail the run.
  bool tamper = false;
  std::map<std::string, std::string> params;
};

/// CPUs this process may run on.
std::size_t host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper") {
      a.tamper = true;
      continue;
    }
    SP_CHECK_INPUT(i + 1 < argc, "missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--param") {
      const std::size_t eq = value.find('=');
      SP_CHECK_INPUT(eq != std::string::npos, "--param needs key=value");
      a.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  SP_CHECK_INPUT(!a.workload.empty() && !a.work_dir.empty(),
                 "--workload and --work-dir are required");
  SP_CHECK_INPUT(a.seconds > 0.0, "--seconds must be > 0");
  return a;
}

service::ServiceOptions service_options(const std::string& cache_dir) {
  service::ServiceOptions o;
  o.num_workers = kWorkers;
  // Explicit: the default (auto) gives every worker every core.
  o.parallel = ParallelConfig::with_threads(kKernelThreads);
  o.cache.cache_dir = cache_dir;
  return o;
}

/// What set-up builds: everything the measured loop needs.
struct Fixture {
  Plan plan;
  std::string cache_dir;
  std::unique_ptr<service::PartitionService> service;
};

/// Solves every pooled cache entry once into `dir` through a throwaway
/// service, so the measured service finds them on disk.
void prewarm(const Plan& plan, const std::string& dir) {
  service::ServiceOptions o = service_options(dir);
  o.num_workers = kClients * kWorkers;
  service::PartitionService svc(o);
  std::vector<std::future<service::PartitionResponse>> pending;
  for (const service::PartitionRequest& r : plan.prewarm)
    pending.push_back(svc.submit(r));
  for (auto& f : pending) {
    const service::PartitionResponse resp = f.get();
    SP_CHECK_INPUT(resp.status == "ok",
                   "pre-warm request failed: " + resp.status + " " + resp.error);
  }
}

Fixture set_up(const Args& a, const WorkloadSpec& spec,
               const std::string& dir) {
  Fixture f;
  f.cache_dir = dir + "/store";
  f.plan = make_plan(spec, a.seed, kClients,
                     service_options("").cache.dim_quantum);
  if (!f.plan.prewarm.empty()) prewarm(f.plan, f.cache_dir);
  f.service =
      std::make_unique<service::PartitionService>(service_options(f.cache_dir));
  return f;
}

/// One request as its client saw it.
struct Outcome {
  const Request* request = nullptr;
  /// Untraced: wire bytes in to response bytes out, through the service.
  double latency = 0.0;
  std::string response;
  /// Exception text when the exchange itself failed.
  std::string error;
  /// --trace 1: the replay's response bytes and root span index.
  std::string replayed;
  std::int32_t root_span = -1;
};

struct ClientRun {
  std::vector<Outcome> outcomes;
  /// From the run's start to this client's last response.
  double busy_seconds = 0.0;
  Tracer tracer;
  /// Replay diagnostics, one per replayed request.
  std::vector<Diagnostics> diags;
};

void run_client(const Args& a, const Fixture& f, ReplayCache* replay,
                std::size_t c, Clock::time_point start, ClientRun& out) {
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds));
  const ParallelConfig parallel = f.service->options().parallel;
  const std::vector<Request>& requests = f.plan.clients[c];
  for (std::size_t j = 0;; ++j) {
    // Stop only between cycles, so every run holds the designed mix, and
    // not before the requests the quality metrics score.
    if (j % f.plan.cycle == 0 && j >= f.plan.quality &&
        Clock::now() >= deadline)
      break;
    if (j == requests.size() && !f.plan.repeat) break;
    const Request& r = requests[j % requests.size()];
    Outcome o;
    o.request = &r;
    try {
      const auto t0 = Clock::now();
      std::istringstream in(r.wire);
      std::optional<service::PartitionRequest> req = service::read_request(in);
      SP_CHECK_INPUT(req.has_value(), "empty request frame");
      const service::PartitionResponse resp =
          f.service->submit(std::move(*req)).get();
      std::ostringstream wire_out;
      service::write_response(resp, wire_out);
      o.response = wire_out.str();
      const auto t1 = Clock::now();
      o.latency = std::chrono::duration<double>(t1 - t0).count();
      out.busy_seconds = std::chrono::duration<double>(t1 - start).count();
      if (replay != nullptr) {
        // A pooled client repeats its requests, so spans carry the
        // execution's own number rather than the request's id.
        out.tracer.set_request(static_cast<std::uint32_t>(j * kClients + c));
        o.root_span = static_cast<std::int32_t>(out.tracer.spans().size());
        out.diags.emplace_back();
        o.replayed = replay_request(r.wire, *replay, parallel, &out.tracer,
                                    out.diags.back());
      }
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    out.outcomes.push_back(std::move(o));
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Linear-interpolation quantile of a sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_metric(const Metric& m) {
  std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

const char* const kLayers[] = {"service", "storage", "model", "spectral",
                               "multilevel", "core", "part"};

/// Per-layer metrics of a traced run: span self times (mean seconds per
/// replayed request) and the counters the program already exports. Adds
/// a violation for every request whose spans do not reconcile with its
/// untraced latency.
std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  const std::vector<ClientRun>& runs,
                                  const ReplayCache& replay,
                                  const service::MetricsSnapshot& snap,
                                  std::vector<std::string>& violations) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> self_by_name;
  std::map<std::string, std::size_t> count_by_name;
  std::map<std::string, double> self_by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_by_name[spans[i].name] += self[i];
    ++count_by_name[spans[i].name];
    self_by_layer[spans[i].layer()] += self[i];
  }

  std::size_t replayed = 0, unreconciled = 0;
  double traced_sum = 0.0, untraced_sum = 0.0, max_gap = 0.0;
  std::uint64_t flops = 0, bytes = 0, levels = 0, coarsest = 0, sweeps = 0;
  std::size_t fallbacks = 0;
  std::size_t offset = 0;
  for (const ClientRun& run : runs) {
    for (const Outcome& o : run.outcomes) {
      if (o.root_span < 0 || !o.error.empty()) continue;
      // The root span is the sum of every layer's self time.
      const double traced =
          spans[offset + static_cast<std::size_t>(o.root_span)].seconds();
      const double diff = std::abs(traced - o.latency);
      max_gap = std::max(max_gap, diff / o.latency);
      if (diff > kReconcileBound * o.latency + kReconcileSlackS)
        ++unreconciled;
      traced_sum += traced;
      untraced_sum += o.latency;
      ++replayed;
    }
    for (const Diagnostics& d : run.diags) {
      flops += d.counter("eigensolve", "flops");
      bytes += d.counter("eigensolve", "matrix_bytes_moved");
      levels += d.counter("eigensolve", "multilevel_levels");
      coarsest += d.counter("eigensolve", "multilevel_coarsest_n");
      sweeps += d.counter("eigensolve", "multilevel_refine_sweeps");
      fallbacks += d.stage_fallbacks("eigensolve");
    }
    offset += run.tracer.spans().size();
  }
  const double r = static_cast<double>(std::max<std::size_t>(replayed, 1));
  // A single request replayed while the other client runs a heavy one can
  // miss the bound by contention alone, so the gate holds for the run's
  // total; per-request misses are reported.
  std::printf("reconciliation: %zu of %zu requests outside %.0f%% + %.3f s\n",
              unreconciled, replayed, 100.0 * kReconcileBound,
              kReconcileSlackS);
  if (std::abs(traced_sum - untraced_sum) >
      kReconcileBound * untraced_sum + kReconcileSlackS)
    violations.push_back(
        strprintf("layer spans total %.6f s against %.6f s untraced",
                  traced_sum, untraced_sum));
  const auto per_request = [&](const char* span) {
    return self_by_name[span] / r;
  };
  const std::size_t ml_solves = count_by_name["multilevel.solve"];
  const double solve_s =
      self_by_name["spectral.eigensolve"] + self_by_name["multilevel.solve"];
  const auto per_solve = [ml_solves](std::uint64_t total) {
    return ml_solves == 0 ? 0.0
                          : static_cast<double>(total) /
                                static_cast<double>(ml_solves);
  };
  const double assemblies = static_cast<double>(replay.assemblies());

  std::vector<Metric> m = {
      {"spectral.eigensolve_s", per_request("spectral.eigensolve"), "s"},
      {"spectral.fallbacks", static_cast<double>(fallbacks), "count"},
      {"linalg.flops", static_cast<double>(flops) / r, "count"},
      {"linalg.matrix_bytes", static_cast<double>(bytes) / r, "bytes"},
      {"linalg.gflop_per_s",
       solve_s > 0.0 ? static_cast<double>(flops) / solve_s * 1e-9 : 0.0,
       "GFLOP/s"},
      {"linalg.gbyte_per_s",
       solve_s > 0.0 ? static_cast<double>(bytes) / solve_s * 1e-9 : 0.0,
       "GB/s"},
      {"multilevel.solve_s", per_request("multilevel.solve"), "s"},
      {"multilevel.levels", per_solve(levels), "count"},
      {"multilevel.refine_sweeps", per_solve(sweeps), "count"},
      {"multilevel.coarsest_n", per_solve(coarsest), "count"},
      {"core.ordering_s", per_request("core.ordering"), "s"},
      {"core.reduction_s", per_request("core.reduction"), "s"},
      {"spectral.dprp_s", per_request("spectral.dprp"), "s"},
      {"part.split_s", per_request("part.split"), "s"},
      {"service.parse_s", per_request("service.parse"), "s"},
      {"service.fingerprint_s", per_request("service.fingerprint"), "s"},
      {"service.cache_lookup_s", per_request("service.cache_lookup"), "s"},
      {"service.encode_s", per_request("service.encode"), "s"},
      {"service.self_s", per_request("service.request"), "s"},
      {"service.cache_hit_rate", snap.cache_hit_rate, "ratio"},
      {"service.cache_prefix_hits",
       static_cast<double>(snap.cache_prefix_hits), "count"},
      {"storage.spills", static_cast<double>(snap.storage.spills), "count"},
      {"storage.write_s", per_request("storage.write"), "s"},
      {"storage.disk_hits", static_cast<double>(snap.storage.disk_hits),
       "count"},
      {"storage.read_s", per_request("storage.read"), "s"},
      {"model.assembly_s", per_request("model.assembly"), "s"},
      {"model.graph_s", per_request("model.graph"), "s"},
      {"model.nnz",
       assemblies > 0.0 ? static_cast<double>(replay.nnz_total()) / assemblies
                        : 0.0,
       "count"},
      {"trace.requests", static_cast<double>(replayed), "count"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"trace.latency_s", traced_sum / r, "s"},
      {"trace.untraced_latency_s", untraced_sum / r, "s"},
      {"trace.overhead_s", (traced_sum - untraced_sum) / r, "s"},
      {"trace.reconcile_max_gap", max_gap, "ratio"},
  };
  for (const char* layer : kLayers)
    m.push_back({std::string("layer.") + layer + "_self_s",
                 self_by_layer[layer] / r, "s"});

  std::printf("per-layer (%zu replayed requests):\n", replayed);
  for (const Metric& metric : m) print_metric(metric);
  // A time metric whose span never ran is unmeasured here, not free.
  for (const Metric& metric : m) {
    const std::string& n = metric.name;
    if (n.size() < 3 || n.compare(n.size() - 2, 2, "_s") != 0 ||
        n.rfind("trace.", 0) == 0 || n.rfind("layer.", 0) == 0 ||
        n.rfind("linalg.", 0) == 0)
      continue;
    std::string span = n.substr(0, n.size() - 2);
    if (span == "service.self") span = "service.request";
    if (count_by_name[span] == 0)
      std::printf("  unmeasured %s: no %s span on this workload\n", n.c_str(),
                  span.c_str());
  }
  if (ml_solves == 0)
    std::printf("  unmeasured multilevel.levels, refine_sweeps, coarsest_n: "
                "no multilevel solve on this workload\n");
  if (assemblies == 0.0)
    std::printf("  unmeasured model.nnz: every basis came from a cache tier\n");
  std::printf("layer self time per request (share of traced latency):\n");
  for (const char* layer : kLayers)
    std::printf("  %-12s %12.6f s %7.2f%%\n", layer, self_by_layer[layer] / r,
                traced_sum > 0.0 ? 100.0 * self_by_layer[layer] / traced_sum
                                 : 0.0);
  std::printf("tracing overhead: traced %.6f s - untraced %.6f s = %.6f s per "
              "request; largest per-request gap %.3f\n",
              traced_sum / r, untraced_sum / r,
              (traced_sum - untraced_sum) / r, max_gap);
  return m;
}

/// Checks that the run exercised what its workload claims to.
std::vector<std::string> workload_claims(const WorkloadSpec& spec,
                                         const Plan& plan,
                                         const std::vector<ClientRun>& runs,
                                         const service::MetricsSnapshot& s,
                                         std::size_t completed,
                                         const std::vector<Span>& spans,
                                         bool traced) {
  std::vector<std::string> v;
  const auto claim = [&v](bool ok, const std::string& what) {
    if (!ok) v.push_back(what);
  };
  const auto u64 = [](std::uint64_t x) {
    return static_cast<unsigned long long>(x);
  };
  // The traced replay keeps every basis, so the service must not evict.
  claim(s.cache_evictions == 0,
        strprintf("basis cache evicted %llu entries", u64(s.cache_evictions)));
  if (spec.pool == 0) {
    claim(s.cache_hits == 0,
          strprintf("cold workload hit the basis cache %llu times",
                    u64(s.cache_hits)));
    claim(s.storage.disk_hits == 0, "cold workload read a basis from disk");
    claim(s.storage.spills == completed,
          strprintf("%llu spills for %zu cold solves", u64(s.storage.spills),
                    completed));
  } else {
    std::set<std::pair<std::size_t, std::size_t>> touched;
    for (const ClientRun& run : runs)
      for (const Outcome& o : run.outcomes)
        touched.insert(o.request->cache_entry);
    claim(touched.size() == plan.prewarm.size(),
          strprintf("touched %zu of %zu warmed cache entries", touched.size(),
                    plan.prewarm.size()));
    claim(s.storage.disk_hits == touched.size(),
          strprintf("%llu disk hits for %zu first touches",
                    u64(s.storage.disk_hits), touched.size()));
    claim(s.cache_hits + touched.size() == s.cache_lookups,
          strprintf("%llu tier-1 hits of %llu lookups after %zu first touches",
                    u64(s.cache_hits), u64(s.cache_lookups), touched.size()));
  }
  const bool k_way = std::any_of(spec.k_block.begin(), spec.k_block.end(),
                                 [](std::uint32_t k) { return k > 2; });
  if (traced && !k_way) {
    const auto dprp =
        std::count_if(spans.begin(), spans.end(), [](const Span& sp) {
          return std::string(sp.name) == "spectral.dprp";
        });
    claim(dprp == 0, strprintf("k=2 workload recorded %ld dprp spans",
                               static_cast<long>(dprp)));
  }
  return v;
}

int run(const Args& a) {
  const WorkloadSpec spec = parse_spec(a.params);
  const std::string state_dir = a.work_dir + "/state";

  const std::size_t cpus = host_cpus();
  std::printf("# host: nproc=%zu clients=%zu service_workers=%zu "
              "kernel_threads=%zu\n",
              cpus, kClients, kWorkers, kKernelThreads);
  std::printf("# netlists: %.2f nets per module, %zu planted clusters; "
              "set-ups per run: %zu (setup_s is their median); traced span "
              "totals must reconcile within %.0f%% + %.3f s\n",
              kNetsPerModule, kClusters, kSetups, 100.0 * kReconcileBound,
              kReconcileSlackS);
  std::fflush(stdout);
  if (kClients * kWorkers * kKernelThreads > cpus)
    throw Error(strprintf("clients x workers x threads = %zu exceeds the "
                          "host's %zu CPUs; refusing to run",
                          kClients * kWorkers * kKernelThreads, cpus));

  // Set-up, several times; the last one is measured. Each starts from an
  // empty state directory, so the cold workloads' store starts empty.
  std::vector<double> setup_seconds;
  Fixture f;
  for (std::size_t i = 0; i < kSetups; ++i) {
    f = Fixture{};
    fs::remove_all(state_dir);
    fs::create_directories(state_dir);
    const Timer timer;
    f = set_up(a, spec, state_dir);
    setup_seconds.push_back(timer.seconds());
  }
  std::unique_ptr<ReplayCache> replay;
  if (a.trace)
    replay = std::make_unique<ReplayCache>(
        f.service->options().cache.dim_quantum,
        spec.pool > 0 ? f.cache_dir : state_dir + "/replay-store");

  std::vector<ClientRun> runs(kClients);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back(run_client, std::cref(a), std::cref(f),
                           replay.get(), c, start, std::ref(runs[c]));
    for (std::thread& t : clients) t.join();
  }
  const service::MetricsSnapshot snap = f.service->snapshot();

  if (a.tamper && !runs[0].outcomes.empty() &&
      runs[0].outcomes[0].error.empty())
    runs[0].outcomes[0].response =
        tamper(*runs[0].outcomes[0].request, runs[0].outcomes[0].response);

  // Correctness gate; only responses that pass it are measured.
  DeterminismAudit audit;
  std::size_t attempted = 0, failed = 0, completed = 0, degraded = 0;
  std::vector<double> latencies, cuts, scaled_costs;
  std::map<std::pair<std::uint32_t, std::size_t>, std::vector<double>>
      by_class;
  double throughput = 0.0;
  for (const ClientRun& run : runs) {
    std::size_t passed = 0;
    for (std::size_t j = 0; j < run.outcomes.size(); ++j) {
      const Outcome& o = run.outcomes[j];
      ++attempted;
      if (o.error.empty()) ++completed;
      service::PartitionResponse resp;
      std::string why = o.error;
      if (why.empty()) why = check_response(*o.request, o.response, resp);
      if (why.empty() && !audit.consistent(*o.request, o.response))
        why = "response bytes differ from an earlier identical request";
      if (why.empty() && a.trace && o.replayed != o.response)
        why = "traced replay's response differs from the service's";
      if (resp.status == "degraded") ++degraded;
      if (!why.empty()) {
        if (failed < 5)
          std::printf("FAIL q%u: %s\n", o.request->id, why.c_str());
        ++failed;
        continue;
      }
      ++passed;
      latencies.push_back(o.latency);
      by_class[{o.request->k, o.request->cache_entry.second}].push_back(
          o.latency);
      // Quality counts the fixed leading requests only, so it repeats
      // exactly at a fixed seed however many requests a run finishes.
      if (j >= f.plan.quality) continue;
      if (o.request->k == 2)
        cuts.push_back(resp.cut);
      else
        scaled_costs.push_back(resp.scaled_cost);
    }
    if (run.busy_seconds > 0.0)
      throughput += static_cast<double>(passed) / run.busy_seconds;
  }

  std::vector<Span> spans;
  if (a.trace) {
    std::vector<const Tracer*> tracers;
    for (const ClientRun& run : runs) tracers.push_back(&run.tracer);
    spans = merge(tracers);
  }
  std::vector<std::string> violations = workload_claims(
      spec, f.plan, runs, snap, completed, spans, a.trace);

  std::printf("workload %s seed %llu: %zu attempted, %zu failed, %zu "
              "identical-request repeats audited\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              attempted, failed, audit.repeats());
  for (const auto& [cls, v] : by_class)
    std::printf("  requests k=%u solve_dim=%zu: %zu, latency p50 %.6f s\n",
                cls.first, cls.second, v.size(), median(v));
  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = layer_metrics(spans, runs, *replay, snap, violations);
    const std::string path = a.work_dir + "/spans.jsonl";
    if (write_spans(path, spans))
      std::printf("spans written to %s\n", path.c_str());
  } else {
    const double n = static_cast<double>(std::max<std::size_t>(attempted, 1));
    metrics = {
        {"throughput_rps", throughput, "1/s"},
        {"latency_p50_s", median(latencies), "s"},
        {"cut_geomean", geomean(cuts), "nets"},
        {"setup_s", median(setup_seconds), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("end-to-end (%zu latency samples, %zu clients):\n",
                latencies.size(), kClients);
    for (const Metric& m : metrics) print_metric(m);
    // Printed but not in BENCHMARK.json: p90 needs >= 100 samples to leave
    // ten beyond it, Scaled Cost exists only for k > 2, and the two
    // fractions are 0 on every run that passes the gate.
    if (latencies.size() >= 100)
      print_metric({"latency_p90_s", quantile(latencies, 0.9), "s"});
    if (!scaled_costs.empty())
      print_metric({"scaled_cost_geomean", geomean(scaled_costs), "ratio"});
    print_metric(
        {"degraded_fraction", static_cast<double>(degraded) / n, "ratio"});
    print_metric({"error_fraction", static_cast<double>(failed) / n, "ratio"});
    std::printf("quality over the first %zu requests of each client: "
                "cut_geomean %.17g over %zu, scaled_cost_geomean %.17g over "
                "%zu\n",
                f.plan.quality, geomean(cuts), cuts.size(),
                geomean(scaled_costs), scaled_costs.size());
  }
  for (const std::string& v : violations)
    std::printf("WORKLOAD CHECK FAILED: %s\n", v.c_str());

  const bool correct = failed == 0 && violations.empty();
  print_result(correct, attempted, failed, metrics);
  std::fflush(stdout);

  f = Fixture{};
  replay.reset();
  fs::remove_all(state_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
