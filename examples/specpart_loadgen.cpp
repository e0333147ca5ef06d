// specpart_loadgen: replay a deterministic mixed partitioning workload
// against the service layer and report throughput, latency percentiles,
// queue depth, and cache hit rate.
//
//   $ ./specpart_loadgen                          # in-process service
//   $ ./specpart_loadgen --requests 500 --workers 4
//   $ ./specpart_loadgen --connect localhost:7077 # against specpart_server
//
// The workload draws from a small pool of synthetic netlists and varies
// eigenvector count, scaling, k, and balance, so a realistic fraction of
// requests repeats an earlier embedding (content-addressed cache hits).
// Whenever a request's wire bytes repeat exactly, the loadgen also checks
// the response bytes repeat exactly — the serving determinism contract.
//
// --shards sweeps sharded topologies instead: for each shard count it
// spins up that many in-process TCP shard servers plus a ShardRouter and
// replays the same workload, then checks every response byte-identical
// across ALL topologies (the hash ring only changes *where* a request
// computes, never *what* it computes). --kill-shard-at N hard-kills the
// primary shard of the next request after N responses, exercising
// retry -> breaker -> ring failover under fire.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "service/net.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/server.h"
#include "service/service.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stringutil.h"

using namespace specpart;

namespace {

std::string request_wire(const service::PartitionRequest& req) {
  std::ostringstream out;
  service::write_request(req, out);
  return out.str();
}

std::string response_wire(const service::PartitionResponse& resp) {
  std::ostringstream out;
  service::write_response(resp, out);
  return out.str();
}

/// Deterministic mixed workload: `count` requests over a small pool of
/// synthetic netlists with varied pipeline settings. All requests use the
/// one solve strategy and objective given.
std::vector<service::PartitionRequest> make_workload(
    std::size_t count, std::uint64_t seed, core::SolverStrategy strategy,
    core::ObjectiveModel objective) {
  std::vector<graph::Hypergraph> pool;
  for (std::size_t i = 0; i < 5; ++i) {
    graph::GeneratorConfig cfg;
    cfg.name = strprintf("load%zu", i);
    // The last pool entry sits above the dense threshold so a multilevel
    // run actually exercises the V-cycle (and a flat run the Krylov
    // chain) instead of both collapsing to the dense oracle.
    cfg.num_modules = i < 4 ? 120 + 40 * i : 520;
    cfg.num_nets = cfg.num_modules + cfg.num_modules / 4;
    cfg.num_clusters = 4 + 2 * (i % 2);
    cfg.seed = 77 + i;
    pool.push_back(graph::generate_netlist(cfg));
  }

  const std::size_t dims[] = {6, 8, 10, 12};
  const core::CoordScaling scalings[] = {core::CoordScaling::kSqrtGap,
                                         core::CoordScaling::kGap};
  const std::uint32_t ks[] = {2, 2, 2, 4};
  const double balances[] = {0.45, 0.40, 0.35};

  Rng rng(seed);
  std::vector<service::PartitionRequest> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    service::PartitionRequest req;
    req.id = strprintf("r%zu", i);
    req.graph = pool[rng.next_below(pool.size())];
    req.k = ks[rng.next_below(4)];
    req.balance = balances[rng.next_below(3)];
    req.pipeline.num_eigenvectors = dims[rng.next_below(4)];
    req.pipeline.scaling = scalings[rng.next_below(2)];
    req.pipeline.solver.strategy = strategy;
    req.pipeline.objective = objective;
    reqs.push_back(std::move(req));
  }
  return reqs;
}

/// Wire bytes of a request with the id field neutralized, so two requests
/// that differ only by id count as "identical work" for the determinism
/// check. (The response embeds the id, so compare responses the same way.)
std::string strip_id(const std::string& wire, const std::string& id) {
  const std::string needle = "id=" + id + " ";
  const std::size_t pos = wire.find(needle);
  if (pos == std::string::npos) return wire;
  return wire.substr(0, pos) + "id=? " + wire.substr(pos + needle.size());
}

struct RunResult {
  std::vector<service::PartitionResponse> responses;
  double elapsed_seconds = 0.0;
  /// Flattened METRICS key/values of the serving side after the run
  /// (snapshot in-process, METRICS frame over TCP).
  std::map<std::string, double> metrics;
};

struct Audit {
  std::size_t unique = 0;
  std::size_t repeats = 0;
  std::size_t mismatches = 0;
  std::size_t errors = 0;
};

/// Determinism audit: identical request bytes must yield identical
/// response bytes, whether the repeat was served cold, from cache, or by
/// a different shard.
Audit audit_run(const std::vector<service::PartitionRequest>& reqs,
                const RunResult& run) {
  std::map<std::string, std::string> seen;
  Audit a;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (run.responses[i].status == "error") ++a.errors;
    const std::string key = strip_id(request_wire(reqs[i]), reqs[i].id);
    const std::string resp =
        strip_id(response_wire(run.responses[i]), run.responses[i].id);
    const auto [it, inserted] = seen.emplace(key, resp);
    if (!inserted) {
      ++a.repeats;
      if (it->second != resp) ++a.mismatches;
    }
  }
  a.unique = seen.size();
  return a;
}

RunResult run_inproc(const std::vector<service::PartitionRequest>& reqs,
                     const service::ServiceOptions& opts) {
  service::PartitionService svc(opts);
  std::deque<std::future<service::PartitionResponse>> pending;
  RunResult run;
  run.responses.reserve(reqs.size());
  const auto start = std::chrono::steady_clock::now();
  for (const service::PartitionRequest& req : reqs)
    pending.push_back(svc.submit(req));
  for (auto& fut : pending) run.responses.push_back(fut.get());
  run.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const service::MetricsSnapshot snap = svc.snapshot();
  for (const auto& [key, value] : snap.key_values()) run.metrics[key] = value;
  service::write_metrics_frame(snap, std::cout);
  return run;
}

/// tcp_connect with a short retry loop, so the loadgen can be launched
/// right after (or even slightly before) the server it targets.
int tcp_connect_retry(const std::string& host, std::uint16_t port) {
  for (int attempt = 0;; ++attempt) {
    try {
      return service::tcp_connect(host, port);
    } catch (const Error&) {
      if (attempt >= 19) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  }
}

RunResult run_tcp(const std::vector<service::PartitionRequest>& reqs,
                  const std::string& host, std::uint16_t port,
                  std::size_t window) {
  const int fd = tcp_connect_retry(host, port);
  service::FdStreamBuf in_buf(fd);
  service::FdStreamBuf out_buf(fd);
  std::istream in(&in_buf);
  std::ostream out(&out_buf);

  RunResult run;
  run.responses.reserve(reqs.size());
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  // Pipelined: keep up to `window` requests in flight; the server
  // preserves order, so responses are read back FIFO.
  while (run.responses.size() < reqs.size()) {
    while (sent < reqs.size() && sent - run.responses.size() < window) {
      service::write_request(reqs[sent], out);
      ++sent;
    }
    out.flush();
    std::optional<service::PartitionResponse> resp = service::read_response(in);
    if (!resp)
      throw Error("loadgen: server closed the connection mid-run");
    run.responses.push_back(std::move(*resp));
  }
  run.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  out << "METRICS\n";
  out.flush();
  std::string line;
  while (std::getline(in, line)) {
    if (trim(line) == "END") break;
    if (trim(line).empty()) continue;
    std::cout << line << '\n';
    // "METRIC <key> <value>" lines feed the post-run assertions
    // (--expect-disk-hit-rate).
    const std::vector<std::string> toks = split_ws(line);
    if (toks.size() == 3 && toks[0] == "METRIC")
      run.metrics[toks[1]] = parse_double(toks[2], "metric value");
  }
  out << "QUIT\n";
  out.flush();
  service::fd_close(fd);
  return run;
}

/// One sharded-topology run: `num_shards` in-process TCP shard servers
/// fronted by a ShardRouter. When `kill_at` >= 0, the primary shard of
/// request `kill_at` is hard-killed (listener + live connections severed)
/// right before that request is issued, so the router must recover it via
/// retry -> breaker -> ring failover. Returns every response; the caller
/// audits the bytes.
RunResult run_sharded(const std::vector<service::PartitionRequest>& reqs,
                      std::size_t num_shards, std::int64_t kill_at) {
  service::ServiceOptions shard_opts;
  shard_opts.num_workers = 2;
  shard_opts.cache.max_bytes = 64ull << 20;
  std::vector<std::unique_ptr<service::ShardServer>> servers;
  servers.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i)
    servers.push_back(std::make_unique<service::ShardServer>(shard_opts));

  service::RouterOptions opts;
  for (const auto& server : servers) {
    service::ShardClientOptions shard;
    shard.port = server->port();
    shard.connect_timeout_ms = 1000;
    shard.backoff.base_ms = 5;
    shard.backoff.max_ms = 50;
    shard.breaker.cooldown_seconds = 0.5;
    opts.shards.push_back(shard);
  }
  opts.health_interval_seconds = 0.2;
  opts.local.num_workers = 2;
  opts.local.cache.max_bytes = 64ull << 20;
  service::ShardRouter router(opts);

  // The ring construction is deterministic, so an external replica maps
  // requests to shards exactly like the router's own — that's how we pick
  // a victim that is guaranteed to be carrying the next request.
  const service::HashRing ring(num_shards, opts.vnodes);

  RunResult run;
  run.responses.reserve(reqs.size());
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (kill_at >= 0 && i == static_cast<std::size_t>(kill_at)) {
      const Fingerprint key = service::routing_key(reqs[i]);
      const std::size_t victim = ring.primary(key.hi ^ key.lo);
      std::printf("loadgen: killing shard %zu (%s) before request %zu\n",
                  victim, router.shard(victim).name().c_str(), i);
      servers[victim]->kill();
    }
    run.responses.push_back(router.route(reqs[i]));
  }
  run.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service::write_metrics_frame(router.snapshot(), std::cout);
  for (auto& server : servers) server->stop();
  return run;
}

/// Replays the workload across every topology in `shard_counts` and
/// audits byte-identity across all of them. Returns the number of
/// cross-topology mismatches; the caller folds the per-run audits.
std::size_t run_topology_sweep(
    const std::vector<service::PartitionRequest>& reqs,
    const std::vector<std::size_t>& shard_counts, std::int64_t kill_at,
    std::vector<RunResult>& runs) {
  std::vector<std::string> reference;
  std::size_t cross_mismatches = 0;
  for (const std::size_t n : shard_counts) {
    // Killing the only shard of a 1-shard ring would just exercise local
    // fallback for the whole tail; reserve the kill for topologies where
    // ring failover can engage.
    const std::int64_t kill = n >= 2 ? kill_at : -1;
    std::printf("\nloadgen: === topology: %zu shard%s%s ===\n", n,
                n == 1 ? "" : "s",
                kill >= 0 ? " (with mid-run shard kill)" : "");
    RunResult run = run_sharded(reqs, n, kill);
    if (reference.empty()) {
      reference.reserve(run.responses.size());
      for (const auto& resp : run.responses)
        reference.push_back(strip_id(response_wire(resp), resp.id));
    } else {
      for (std::size_t i = 0; i < run.responses.size(); ++i) {
        const std::string wire =
            strip_id(response_wire(run.responses[i]), run.responses[i].id);
        if (wire != reference[i]) {
          ++cross_mismatches;
          std::fprintf(stderr,
                       "loadgen: topology %zu: request %zu bytes differ "
                       "from the reference topology\n",
                       n, i);
        }
      }
    }
    std::printf("loadgen: topology %zu: %zu requests in %.3f s\n", n,
                reqs.size(), run.elapsed_seconds);
    runs.push_back(std::move(run));
  }
  return cross_mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("specpart_loadgen",
          "replay a deterministic mixed workload against the partitioning "
          "service and report throughput / latency / cache hit rate");
  cli.add_flag("requests", "200", "number of requests to issue");
  cli.add_flag("seed", "1", "workload PRNG seed");
  cli.add_flag("workers", "2", "in-process mode: service worker threads");
  cli.add_flag("queue", "64", "in-process mode: job-queue capacity");
  cli.add_flag("cache-mb", "256",
               "in-process mode: embedding-cache budget in MiB (0 stores "
               "nothing)");
  cli.add_flag("connect", "",
               "host:port of a running specpart_server (empty = in-process)");
  cli.add_flag("window", "16", "TCP mode: pipelining window");
  cli.add_flag("solver-strategy", "flat",
               "eigensolve orchestration for every request: " +
                   core::solver_strategy_tokens() +
                   " (byte-identity is audited either way)");
  cli.add_flag("objective", "unnormalized",
               "spectral objective for every request: " +
                   core::objective_model_tokens() +
                   " (byte-identity is audited either way)");
  cli.add_flag("shards", "",
               "comma-separated shard counts (e.g. 1,2,4): replay the "
               "workload through an in-process router + TCP shards per "
               "topology and audit cross-topology byte-identity");
  cli.add_flag("kill-shard-at", "-1",
               "sharded mode: hard-kill the primary shard of this request "
               "index mid-run in every multi-shard topology (-1 = never)");
  cli.add_flag("cache-dir", "",
               "in-process mode: persistent tier-2 basis store directory "
               "(empty disables the tier)");
  cli.add_flag("disk-budget-mb", "1024",
               "in-process mode: tier-2 byte budget in MiB");
  cli.add_flag("dump-responses", "",
               "write every response's id-neutralized wire bytes to this "
               "file (restart-recovery audits)");
  cli.add_flag("check-responses", "",
               "compare this run's responses byte-for-byte against a file "
               "written by --dump-responses; mismatches fail the run");
  cli.add_flag("expect-disk-hit-rate", "-1",
               "fail unless storage_disk_hits / (hits + misses) from the "
               "post-run metrics reaches this fraction (-1 disables)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    // Shards die mid-write in this harness by design; that must error a
    // stream, not kill the process.
    std::signal(SIGPIPE, SIG_IGN);
    const std::size_t count =
        static_cast<std::size_t>(cli.get_int("requests"));
    const std::vector<service::PartitionRequest> reqs = make_workload(
        count, static_cast<std::uint64_t>(cli.get_int("seed")),
        core::parse_solver_strategy(cli.get("solver-strategy")),
        core::parse_objective_model(cli.get("objective")));

    const std::string shards_spec = cli.get("shards");
    if (!shards_spec.empty()) {
      std::vector<std::size_t> counts;
      for (const std::string& tok : split_char(shards_spec, ','))
        if (!trim(tok).empty())
          counts.push_back(parse_size(trim(tok), "shard count"));
      if (counts.empty())
        throw Error("loadgen: --shards wants counts like 1,2,4");
      std::vector<RunResult> runs;
      const std::size_t cross_mismatches = run_topology_sweep(
          reqs, counts, cli.get_int("kill-shard-at"), runs);
      std::size_t mismatches = cross_mismatches, errors = 0, repeats = 0;
      for (std::size_t t = 0; t < runs.size(); ++t) {
        const Audit a = audit_run(reqs, runs[t]);
        std::printf(
            "loadgen: topology %zu: %zu unique requests, %zu repeats, %zu "
            "byte-identity mismatches, %zu errors\n",
            counts[t], a.unique, a.repeats, a.mismatches, a.errors);
        mismatches += a.mismatches;
        errors += a.errors;
        repeats += a.repeats;
      }
      std::printf(
          "\nloadgen: sweep over %zu topologies: %zu repeats, %zu "
          "byte-identity mismatches (incl. %zu cross-topology), %zu "
          "errors\n",
          counts.size(), repeats, mismatches, cross_mismatches, errors);
      if (mismatches != 0 || errors != 0) {
        std::fprintf(stderr,
                     "loadgen: FAIL: sharded sweep broke the determinism "
                     "contract or dropped requests\n");
        return 1;
      }
      return 0;
    }

    RunResult run;
    const std::string connect = cli.get("connect");
    if (connect.empty()) {
      service::ServiceOptions opts;
      opts.num_workers = static_cast<std::size_t>(cli.get_int("workers"));
      opts.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
      opts.cache.max_bytes =
          static_cast<std::size_t>(cli.get_int("cache-mb")) << 20;
      opts.cache.cache_dir = cli.get("cache-dir");
      opts.cache.disk_budget_bytes =
          static_cast<std::size_t>(cli.get_int("disk-budget-mb")) << 20;
      run = run_inproc(reqs, opts);
    } else {
      const std::vector<std::string> parts = split_char(connect, ':');
      if (parts.size() != 2)
        throw Error("loadgen: --connect wants host:port, got '" + connect +
                    "'");
      run = run_tcp(reqs, parts[0],
                    static_cast<std::uint16_t>(parse_size(parts[1], "port")),
                    static_cast<std::size_t>(cli.get_int("window")));
    }

    const Audit a = audit_run(reqs, run);
    std::printf("\nloadgen: %zu requests in %.3f s (%.1f req/s)\n",
                reqs.size(), run.elapsed_seconds,
                static_cast<double>(reqs.size()) / run.elapsed_seconds);
    std::printf(
        "loadgen: %zu unique requests, %zu repeats, %zu byte-identity "
        "mismatches, %zu errors\n",
        a.unique, a.repeats, a.mismatches, a.errors);
    const std::size_t mismatches = a.mismatches, errors = a.errors;
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "loadgen: FAIL: repeated requests produced different "
                   "response bytes\n");
      return 1;
    }
    if (errors != 0) {
      std::fprintf(stderr, "loadgen: FAIL: %zu requests errored\n", errors);
      return 1;
    }

    // Restart-recovery audits: the id-neutralized response bytes of one
    // run, dumped to a file, must match a later run over a restarted
    // server byte for byte — disk-served warm responses included.
    std::string blob;
    for (const auto& resp : run.responses)
      blob += strip_id(response_wire(resp), resp.id);
    const std::string dump_path = cli.get("dump-responses");
    if (!dump_path.empty()) {
      std::ofstream dump(dump_path, std::ios::binary);
      dump << blob;
      if (!dump)
        throw Error("loadgen: cannot write --dump-responses file " +
                    dump_path);
      std::printf("loadgen: responses dumped to %s (%zu bytes)\n",
                  dump_path.c_str(), blob.size());
    }
    const std::string check_path = cli.get("check-responses");
    if (!check_path.empty()) {
      std::ifstream check(check_path, std::ios::binary);
      if (!check)
        throw Error("loadgen: cannot read --check-responses file " +
                    check_path);
      std::stringstream expect;
      expect << check.rdbuf();
      if (expect.str() != blob) {
        std::fprintf(stderr,
                     "loadgen: FAIL: responses differ from %s (%zu vs %zu "
                     "bytes)\n",
                     check_path.c_str(), blob.size(), expect.str().size());
        return 1;
      }
      std::printf("loadgen: responses byte-identical to %s\n",
                  check_path.c_str());
    }

    const double want_disk_rate = cli.get_double("expect-disk-hit-rate");
    if (want_disk_rate >= 0.0) {
      const double hits = run.metrics.count("storage_disk_hits") != 0
                              ? run.metrics.at("storage_disk_hits")
                              : 0.0;
      const double misses = run.metrics.count("storage_disk_misses") != 0
                                ? run.metrics.at("storage_disk_misses")
                                : 0.0;
      const double rate =
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
      std::printf("loadgen: disk hit rate %.1f%% (%g hits, %g misses)\n",
                  100.0 * rate, hits, misses);
      if (rate < want_disk_rate) {
        std::fprintf(stderr,
                     "loadgen: FAIL: disk hit rate %.3f below the expected "
                     "%.3f\n",
                     rate, want_disk_rate);
        return 1;
      }
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "specpart_loadgen: %s\n", e.what());
    return 1;
  }
}
