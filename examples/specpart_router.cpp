// specpart_router: the fault-tolerant front tier of a specpart fleet.
//
// Speaks the same wire protocol as specpart_server (service/protocol.h)
// over stdio or TCP, but instead of computing locally it consistent-hashes
// each request's netlist fingerprint across N backend shards, with
// retry/backoff, per-shard circuit breakers, active health checks,
// hash-ring failover, and a local degraded-deadline fallback when the
// whole fleet is down (service/router.h). Because the pipeline is
// deterministic, clients get byte-identical responses no matter which
// shard — or the router itself — computed them.
//
//   $ ./specpart_server --port 7171 &          # shard 0
//   $ ./specpart_server --port 7172 &          # shard 1
//   $ ./specpart_router --shards 127.0.0.1:7171,127.0.0.1:7172 --port 7077
//
// The METRICS control frame aggregates the tier: router counters
// (failovers, local fallbacks, retries) plus per-shard breaker state.
#include <csignal>
#include <cstdio>
#include <iostream>

#include "service/router.h"
#include "service/server.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/stringutil.h"

using namespace specpart;

namespace {

/// "host:port,host:port,..." -> one ShardClientOptions per backend.
std::vector<service::ShardClientOptions> parse_shards(
    const std::string& spec, const service::ShardClientOptions& base) {
  std::vector<service::ShardClientOptions> shards;
  for (const std::string_view entry : split_char(spec, ',')) {
    const std::string_view stripped = trim(entry);
    if (stripped.empty()) continue;
    const std::size_t colon = stripped.rfind(':');
    SP_CHECK_INPUT(colon != std::string_view::npos && colon > 0 &&
                       colon + 1 < stripped.size(),
                   "--shards entries must be host:port, got '" +
                       std::string(stripped) + "'");
    service::ShardClientOptions opts = base;
    opts.host = std::string(stripped.substr(0, colon));
    opts.port = static_cast<std::uint16_t>(
        parse_size(stripped.substr(colon + 1), "shard port"));
    shards.push_back(std::move(opts));
  }
  return shards;
}

}  // namespace

int main(int argc, char** argv) {
  // A shard dying mid-write must surface as a stream error on that one
  // connection, never as process death.
  std::signal(SIGPIPE, SIG_IGN);
  Cli cli("specpart_router",
          "consistent-hash request router over specpart_server shards (see "
          "docs/SERVING.md)");
  cli.add_flag("shards", "",
               "comma-separated host:port backends (empty = no shards: "
               "every request computes locally)");
  cli.add_flag("port", "-1",
               "TCP port to listen on (-1 = stdio mode, 0 = kernel-assigned; "
               "the bound port is printed to stderr)");
  cli.add_flag("vnodes", "64", "virtual nodes per shard on the hash ring");
  cli.add_flag("connect-timeout-ms", "250", "per-shard connect deadline");
  cli.add_flag("io-timeout-ms", "30000",
               "per-shard read/write deadline while a call is in flight");
  cli.add_flag("retries", "2",
               "resend attempts per shard after the first failure");
  cli.add_flag("backoff-ms", "10", "base retry backoff (doubles per retry)");
  cli.add_flag("backoff-max-ms", "200", "retry backoff ceiling");
  cli.add_flag("breaker-failures", "3",
               "consecutive failures that open a shard's circuit breaker");
  cli.add_flag("breaker-cooldown", "1",
               "seconds an open breaker waits before its half-open probe");
  cli.add_flag("health-interval", "2",
               "seconds between active PING health checks (0 disables)");
  cli.add_flag("local-deadline", "30",
               "degraded compute budget in seconds for local fallback "
               "requests when every shard is down (0 = unlimited)");
  cli.add_flag("workers", "2", "local fallback engine worker threads");
  cli.add_flag("cache-mb", "64",
               "local fallback embedding-cache budget in MiB");
  cli.add_flag("cache-dir", "",
               "persistent tier-2 basis store for the local fallback engine "
               "(empty disables the tier)");
  cli.add_flag("disk-budget-mb", "1024",
               "local fallback tier-2 byte budget in MiB");
  cli.add_flag("threads", "0",
               "local fallback compute threads (0 = auto)");
  cli.add_flag("max-payload-mb", "256",
               "largest REQUEST payload accepted, in MiB");
  try {
    if (!cli.parse(argc, argv)) return 0;
    service::ShardClientOptions base;
    base.connect_timeout_ms = static_cast<int>(cli.get_int("connect-timeout-ms"));
    base.io_timeout_ms = static_cast<int>(cli.get_int("io-timeout-ms"));
    base.backoff.max_retries =
        static_cast<std::size_t>(cli.get_int("retries"));
    base.backoff.base_ms = static_cast<std::uint64_t>(cli.get_int("backoff-ms"));
    base.backoff.max_ms =
        static_cast<std::uint64_t>(cli.get_int("backoff-max-ms"));
    base.breaker.failure_threshold =
        static_cast<std::size_t>(cli.get_int("breaker-failures"));
    base.breaker.cooldown_seconds = cli.get_double("breaker-cooldown");

    service::RouterOptions opts;
    opts.shards = parse_shards(cli.get("shards"), base);
    opts.vnodes = static_cast<std::size_t>(cli.get_int("vnodes"));
    opts.health_interval_seconds = cli.get_double("health-interval");
    opts.local_deadline_seconds = cli.get_double("local-deadline");
    opts.local.num_workers = static_cast<std::size_t>(cli.get_int("workers"));
    opts.local.cache.max_bytes =
        static_cast<std::size_t>(cli.get_int("cache-mb")) << 20;
    opts.local.cache.cache_dir = cli.get("cache-dir");
    opts.local.cache.disk_budget_bytes =
        static_cast<std::size_t>(cli.get_int("disk-budget-mb")) << 20;
    opts.local.parallel = ParallelConfig::with_threads(
        static_cast<std::size_t>(cli.get_int("threads")));
    service::ShardRouter router(opts);
    service::RouterBackend backend(router);

    service::ProtocolLimits limits;
    limits.max_payload_bytes =
        static_cast<std::size_t>(cli.get_int("max-payload-mb")) << 20;

    const std::int64_t port = cli.get_int("port");
    if (port < 0) {
      service::serve_stream(backend, std::cin, std::cout, limits);
      return 0;
    }
    service::TcpServer server(backend, static_cast<std::uint16_t>(port),
                              limits);
    std::fprintf(stderr, "specpart_router: listening on port %u (%zu shards)\n",
                 static_cast<unsigned>(server.port()), router.num_shards());
    server.wait();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "specpart_router: %s\n", e.what());
    return 1;
  }
}
