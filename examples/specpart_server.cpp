// specpart_server: serve the partitioning wire protocol (service/protocol.h)
// over stdin/stdout or a TCP port.
//
//   $ ./specpart_server                     # stdio: pipe frames in and out
//   $ ./specpart_server --port 7077        # TCP on every IPv4 interface
//   $ ./specpart_server --port 0           # kernel-assigned port
//
// Requests flow through PartitionService's bounded queue and worker pool;
// responses are written in request order (per connection), so a client can
// pipeline requests without reordering logic. Control lines:
//   PING     -> PONG (after all earlier responses)
//   METRICS  -> METRICS frame (key/value lines, END-terminated)
//   QUIT     -> drains, says BYE, closes the connection
//
// TCP connections are served concurrently by the accept loop in
// service/server.h, shared with specpart_router, the multi-shard loadgen
// and the tests.
#include <csignal>
#include <cstdio>
#include <iostream>

#include "service/server.h"
#include "service/service.h"
#include "util/cli.h"
#include "util/error.h"

using namespace specpart;

int main(int argc, char** argv) {
  // A client vanishing mid-response must error that one stream, not
  // SIGPIPE-kill the server.
  std::signal(SIGPIPE, SIG_IGN);
  Cli cli("specpart_server",
          "serve partitioning requests over stdio or TCP (see "
          "docs/SERVING.md)");
  cli.add_flag("port", "-1",
               "TCP port to listen on (-1 = stdio mode, 0 = kernel-assigned; "
               "the bound port is printed to stderr)");
  cli.add_flag("workers", "2", "worker threads executing requests");
  cli.add_flag("queue", "64", "job-queue capacity (admission control)");
  cli.add_flag("cache-mb", "256",
               "embedding-cache byte budget in MiB (0 stores nothing)");
  cli.add_flag("quantum", "8",
               "eigensolve dimension quantum (see docs/SERVING.md)");
  cli.add_flag("cache-dir", "",
               "directory for the persistent tier-2 basis store (empty "
               "disables the tier; see docs/SERVING.md)");
  cli.add_flag("disk-budget-mb", "1024",
               "tier-2 store byte budget in MiB (LRU files beyond it are "
               "deleted)");
  cli.add_flag("deadline", "0",
               "per-request compute budget in seconds (0 = unlimited)");
  cli.add_flag("threads", "0",
               "compute-kernel threads per request (0 = auto: "
               "$SPECPART_THREADS or hardware concurrency)");
  cli.add_flag("idle-timeout", "0",
               "TCP mode: close a connection after this many seconds "
               "without a byte from the client (0 = never)");
  cli.add_flag("max-payload-mb", "256",
               "largest REQUEST payload accepted, in MiB");
  try {
    if (!cli.parse(argc, argv)) return 0;
    service::ServiceOptions opts;
    opts.num_workers = static_cast<std::size_t>(cli.get_int("workers"));
    opts.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
    opts.cache.max_bytes =
        static_cast<std::size_t>(cli.get_int("cache-mb")) << 20;
    opts.cache.dim_quantum = static_cast<std::size_t>(cli.get_int("quantum"));
    opts.cache.cache_dir = cli.get("cache-dir");
    opts.cache.disk_budget_bytes =
        static_cast<std::size_t>(cli.get_int("disk-budget-mb")) << 20;
    opts.deadline_seconds = cli.get_double("deadline");
    opts.parallel =
        ParallelConfig::with_threads(static_cast<std::size_t>(cli.get_int("threads")));
    service::PartitionService svc(opts);
    service::ServiceBackend backend(svc);

    service::ProtocolLimits limits;
    limits.max_payload_bytes =
        static_cast<std::size_t>(cli.get_int("max-payload-mb")) << 20;

    const std::int64_t port = cli.get_int("port");
    if (port < 0) {
      service::serve_stream(backend, std::cin, std::cout, limits);
      return 0;
    }
    service::TcpServer server(backend, static_cast<std::uint16_t>(port),
                              limits, cli.get_double("idle-timeout"));
    std::fprintf(stderr, "specpart_server: listening on port %u\n",
                 static_cast<unsigned>(server.port()));
    server.wait();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "specpart_server: %s\n", e.what());
    return 1;
  }
}
