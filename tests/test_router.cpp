// Tests for the fault-tolerant serving tier: consistent-hash ring,
// content-based routing keys, backoff policy, the ShardClient circuit
// breaker (driven both by real dead ports and by the net.* fault domain),
// ring failover with a shard killed mid-run, the cross-shard
// byte-identity guarantee, and the TCP accept loop the binaries share.
#include <gtest/gtest.h>
#include <poll.h>
#include <pthread.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "service/client.h"
#include "service/net.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/server.h"
#include "service/service.h"
#include "util/fault.h"

namespace specpart::service {
namespace {

constexpr bool kFaultsCompiled =
#ifdef SPECPART_FAULT_INJECTION
    true;
#else
    false;
#endif

class RouterTestEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Shards die mid-write in these tests by design.
    std::signal(SIGPIPE, SIG_IGN);
  }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new RouterTestEnv);

graph::Hypergraph small_netlist(std::uint64_t seed = 7,
                                std::size_t modules = 60) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 3;
  cfg.num_clusters = 4;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

PartitionRequest make_request(std::uint64_t graph_seed = 7,
                              std::size_t d = 6) {
  PartitionRequest req;
  req.id = "t";
  req.graph = small_netlist(graph_seed);
  req.pipeline.num_eigenvectors = d;
  return req;
}

std::string wire(const PartitionResponse& resp) {
  std::ostringstream out;
  write_response(resp, out);
  return out.str();
}

/// Fast-failing client options against `port` (tiny timeouts/backoff so
/// dead-shard paths don't slow the suite down).
ShardClientOptions fast_opts(std::uint16_t port) {
  ShardClientOptions opts;
  opts.port = port;
  opts.connect_timeout_ms = 250;
  opts.io_timeout_ms = 5000;
  opts.backoff.base_ms = 1;
  opts.backoff.max_ms = 4;
  opts.breaker.failure_threshold = 3;
  opts.breaker.cooldown_seconds = 0.05;
  return opts;
}

TEST(HashRing, CoversAllShardsInDistinctOrder) {
  const HashRing ring(4, 64);
  for (std::uint64_t point : {0ull, 1ull, 0x123456789abcdefull, ~0ull}) {
    const std::vector<std::size_t> order = ring.route(point);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 4u);
    EXPECT_EQ(order.front(), ring.primary(point));
  }
}

TEST(HashRing, DeterministicAndBalanced) {
  const HashRing a(4, 64);
  const HashRing b(4, 64);
  std::vector<std::size_t> owners(4, 0);
  for (std::uint64_t k = 0; k < 512; ++k) {
    const std::uint64_t point = k * 0x9E3779B97F4A7C15ULL;
    EXPECT_EQ(a.route(point), b.route(point));
    ++owners[a.primary(point)];
  }
  // 64 vnodes/shard spread 512 keys far from degenerate: every shard owns
  // a meaningful slice.
  for (const std::size_t n : owners) EXPECT_GE(n, 512u / 16);
}

TEST(HashRing, LosingAShardOnlyRemapsItsKeys) {
  const HashRing four(4, 64);
  // The ring-walk failover order already encodes this: a key whose primary
  // survives keeps it as first choice, so failover only moves keys that
  // were on the dead shard.
  for (std::uint64_t k = 0; k < 128; ++k) {
    const std::uint64_t point = k * 0x2545F4914F6CDD1DULL;
    const std::vector<std::size_t> order = four.route(point);
    if (order[0] != 0) continue;  // shard 0 "dies" below
    // The first non-0 entry is where this key fails over; it must be the
    // same shard every time we ask.
    EXPECT_EQ(four.route(point)[1], order[1]);
  }
}

TEST(RoutingKey, TracksNetlistContentNotPipelineKnobs) {
  PartitionRequest a = make_request(7);
  PartitionRequest b = make_request(7);
  b.k = 4;
  b.balance = 0.35;
  b.pipeline.num_eigenvectors = 12;
  b.pipeline.seed ^= 99;
  // Same netlist, different experiment knobs: same shard, warm cache.
  EXPECT_EQ(routing_key(a), routing_key(b));

  PartitionRequest c = make_request(11);
  EXPECT_NE(routing_key(a), routing_key(c));

  PartitionRequest d = make_request(7);
  d.pipeline.net_model = model::NetModel::kStandard;
  // The net model changes the expanded graph (and the cache key), so it
  // changes the placement too.
  EXPECT_NE(routing_key(a), routing_key(d));
}

TEST(Backoff, DeterministicJitteredExponentialWithCap) {
  BackoffPolicy p;
  p.base_ms = 10;
  p.max_ms = 80;
  EXPECT_EQ(p.delay_ms(0, 1), 0.0);
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    const double capped =
        std::min(p.max_ms, p.base_ms * std::pow(2.0, double(attempt - 1)));
    const double d = p.delay_ms(attempt, 42);
    EXPECT_GE(d, 0.5 * capped);
    EXPECT_LE(d, capped);
    EXPECT_EQ(d, p.delay_ms(attempt, 42));  // reproducible
  }
  // Different salts decorrelate concurrent callers.
  EXPECT_NE(p.delay_ms(3, 1), p.delay_ms(3, 2));
}

TEST(ShardClient, CallAgainstLiveShardMatchesLocalBytes) {
  ShardServer server;
  ShardClient client(fast_opts(server.port()));
  const PartitionRequest req = make_request();

  const std::optional<PartitionResponse> remote = client.call(req);
  ASSERT_TRUE(remote.has_value());
  PartitionService local;
  EXPECT_EQ(wire(*remote), wire(local.execute(req)));
  EXPECT_EQ(client.state(), ShardState::kClosed);
  EXPECT_EQ(client.stats().successes, 1u);
  EXPECT_TRUE(client.ping());
  server.stop();
}

TEST(ShardClient, DeadPortOpensBreakerAndSkipsCalls) {
  // Grab a kernel-assigned port, then close it: nothing listens there.
  std::uint16_t dead_port = 0;
  {
    ShardServer probe;
    dead_port = probe.port();
    probe.stop();
  }
  ShardClientOptions opts = fast_opts(dead_port);
  opts.backoff.max_retries = 0;  // one attempt per call
  opts.breaker.cooldown_seconds = 60.0;
  ShardClient client(opts);
  const PartitionRequest req = make_request();
  for (std::size_t i = 0; i < opts.breaker.failure_threshold; ++i) {
    EXPECT_FALSE(client.call(req).has_value());
  }
  EXPECT_EQ(client.state(), ShardState::kOpen);
  EXPECT_EQ(client.stats().breaker_opens, 1u);
  // While open, calls are refused without touching the network.
  EXPECT_FALSE(client.call(req).has_value());
  EXPECT_EQ(client.stats().skipped, 1u);
}

TEST(ShardClient, BreakerHalfOpenProbeFailsThenRecovers) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  ShardServer server;
  ShardClientOptions opts = fast_opts(server.port());
  opts.backoff.max_retries = 0;
  ShardClient client(opts);
  const PartitionRequest req = make_request();

  // Trip the breaker with injected connect refusals.
  fault::arm("net.connect_refused", opts.breaker.failure_threshold);
  for (std::size_t i = 0; i < opts.breaker.failure_threshold; ++i)
    EXPECT_FALSE(client.call(req).has_value());
  ASSERT_EQ(client.state(), ShardState::kOpen);

  // Cooldown elapses; the half-open probe fails -> straight back to open.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  fault::arm("net.connect_refused", 1);
  EXPECT_FALSE(client.call(req).has_value());
  EXPECT_EQ(client.state(), ShardState::kOpen);
  EXPECT_EQ(client.stats().breaker_opens, 2u);

  // Cooldown again, no faults: the probe succeeds and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_TRUE(client.call(req).has_value());
  EXPECT_EQ(client.state(), ShardState::kClosed);
  server.stop();
}

TEST(ShardClient, MidFrameDisconnectIsRetriedAndServerSurvives) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  ShardServer server;
  ShardClient client(fast_opts(server.port()));
  const PartitionRequest req = make_request();
  const std::string expected = wire(*client.call(req));

  // The next request dies halfway through the frame; the retry must
  // resend it cleanly and the shard must shrug off the garbage stream.
  fault::arm("net.mid_frame_disconnect", 1);
  const std::optional<PartitionResponse> resp = client.call(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(wire(*resp), expected);
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_EQ(fault::triggered("net.mid_frame_disconnect"), 1u);

  // And the server still answers fresh connections afterwards.
  ShardClient again(fast_opts(server.port()));
  EXPECT_TRUE(again.ping());
  server.stop();
}

TEST(ShardClient, SlowShardReadDeadlineIsRetried) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  ShardServer server;
  ShardClient client(fast_opts(server.port()));
  const PartitionRequest req = make_request();

  fault::arm("net.slow_shard", 1);
  const std::optional<PartitionResponse> resp = client.call(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_GE(client.stats().retries, 1u);
  server.stop();
}

TEST(ShardRouter, TwoShardsMatchLocalBytesAndPinNetlistsToShards) {
  std::vector<std::unique_ptr<ShardServer>> servers;
  RouterOptions opts;
  for (int i = 0; i < 2; ++i) {
    servers.push_back(std::make_unique<ShardServer>());
    opts.shards.push_back(fast_opts(servers.back()->port()));
  }
  ShardRouter router(opts);
  PartitionService local;

  for (const std::uint64_t seed : {7ull, 11ull, 13ull, 17ull}) {
    const PartitionRequest req = make_request(seed);
    EXPECT_EQ(wire(router.route(req)), wire(local.execute(req)));
  }
  const MetricsSnapshot snap = router.snapshot();
  EXPECT_TRUE(snap.router.present);
  EXPECT_EQ(snap.router.requests, 4u);
  EXPECT_EQ(snap.router.failovers, 0u);
  EXPECT_EQ(snap.router.local_fallbacks, 0u);
  EXPECT_EQ(snap.router.shards_live, 2u);
  // Both shards stayed closed: traffic reached them directly.
  std::uint64_t shard_requests = 0;
  for (const RouterShardMetrics& m : snap.router.shards) {
    EXPECT_EQ(m.state, static_cast<int>(ShardState::kClosed));
    shard_requests += m.requests;
  }
  EXPECT_EQ(shard_requests, 4u);
  for (auto& s : servers) s->stop();
}

TEST(ShardRouter, KillShardMidRunFailsOverWithIdenticalBytes) {
  std::vector<std::unique_ptr<ShardServer>> servers;
  RouterOptions opts;
  for (int i = 0; i < 2; ++i) {
    servers.push_back(std::make_unique<ShardServer>());
    opts.shards.push_back(fast_opts(servers.back()->port()));
  }
  ShardRouter router(opts);
  PartitionService local;

  std::vector<PartitionRequest> reqs;
  for (const std::uint64_t seed : {7ull, 11ull, 13ull, 17ull})
    reqs.push_back(make_request(seed));

  // Warm pass, everything live.
  for (const PartitionRequest& req : reqs)
    EXPECT_EQ(wire(router.route(req)), wire(local.execute(req)));

  // Hard-kill the primary shard of reqs[0] and replay: requests that
  // hashed there must fail over (or, with both dead, fall back locally)
  // with byte-identical responses throughout.
  const HashRing ring(2, opts.vnodes);
  const Fingerprint key = routing_key(reqs[0]);
  servers[ring.primary(key.hi ^ key.lo)]->kill();
  for (const PartitionRequest& req : reqs)
    EXPECT_EQ(wire(router.route(req)), wire(local.execute(req)));

  const MetricsSnapshot snap = router.snapshot();
  EXPECT_GE(snap.router.failovers + snap.router.local_fallbacks, 1u);
  EXPECT_LE(snap.router.shards_live, 1u);
  for (auto& s : servers) s->stop();
}

TEST(ShardRouter, AllShardsDownDegradesToLocalFallback) {
  // Shards that were never started: connect fails immediately.
  std::uint16_t dead = 0;
  {
    ShardServer probe;
    dead = probe.port();
    probe.stop();
  }
  RouterOptions opts;
  ShardClientOptions shard = fast_opts(dead);
  shard.backoff.max_retries = 0;
  opts.shards.push_back(shard);
  opts.local_deadline_seconds = 30.0;
  ShardRouter router(opts);

  const PartitionRequest req = make_request();
  const PartitionResponse resp = router.route(req);
  EXPECT_TRUE(resp.ok()) << resp.error;
  PartitionService local;
  EXPECT_EQ(wire(resp), wire(local.execute(req)));

  const MetricsSnapshot snap = router.snapshot();
  EXPECT_EQ(snap.router.local_fallbacks, 1u);
  // The degraded deadline reached the local engine.
  EXPECT_EQ(router.local_service().options().deadline_seconds, 30.0);
  // The recovery is visible in the metrics frame.
  bool found = false;
  for (const auto& [k, v] : snap.key_values())
    if (k == "router_local_fallbacks") {
      found = true;
      EXPECT_EQ(v, 1.0);
    }
  EXPECT_TRUE(found);
}

TEST(ShardRouter, HealthPingClosesOpenBreaker) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  ShardServer server;
  RouterOptions opts;
  ShardClientOptions shard = fast_opts(server.port());
  shard.backoff.max_retries = 0;
  opts.shards.push_back(shard);
  opts.health_interval_seconds = 0.05;
  ShardRouter router(opts);

  // Trip the breaker with injected refusals against the (healthy) shard.
  // The health thread races us for the armed counts (its pings also fail
  // and also feed the breaker), so arm generously and loop to the state.
  ShardClient& client = router.shard(0);
  fault::arm("net.connect_refused", 1000);
  const PartitionRequest req = make_request();
  for (int i = 0; i < 100 && client.state() != ShardState::kOpen; ++i)
    (void)client.call(req);
  ASSERT_EQ(client.state(), ShardState::kOpen);
  fault::reset();  // heal the network; only the PING may close the breaker

  // Within a few health intervals (cooldown 50 ms), the PING probe runs
  // against the healthy server and closes the breaker — no request
  // needed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (client.state() != ShardState::kClosed &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(client.state(), ShardState::kClosed);
  EXPECT_GE(client.stats().pings_ok, 1u);
  server.stop();
}

TEST(TcpServer, IdleTimeoutReleasesStalledConnections) {
  PartitionService svc;
  ServiceBackend backend(svc);
  TcpServer server(backend, 0, {}, 0.1);
  const int fd = tcp_connect("127.0.0.1", server.port());
  FdStreamBuf in_buf(fd);
  std::istream in(&in_buf);
  // Send nothing: the server must hang up on its own.
  std::string line;
  const auto start = std::chrono::steady_clock::now();
  while (std::getline(in, line)) {
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 5.0);  // closed by the idle deadline, not by stop()
  fd_close(fd);
  server.stop();
}

/// One client connection speaking the wire protocol.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(tcp_connect("127.0.0.1", port)),
        in_buf_(fd_),
        out_buf_(fd_),
        in_(&in_buf_),
        out_(&out_buf_) {}
  ~Client() { fd_close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& frames) {
    out_ << frames;
    out_.flush();
  }
  std::string line() {
    std::string l;
    std::getline(in_, l);
    return l;
  }
  std::string response() {
    const std::optional<PartitionResponse> resp = read_response(in_);
    return resp ? wire(*resp) : "<closed>";
  }
  /// The lines of one METRICS frame, END included.
  std::string metrics_frame() {
    std::string frame;
    for (std::string l = line(); !l.empty(); l = line()) {
      frame += l + '\n';
      if (l == "END") break;
    }
    return frame;
  }
  /// True when the server sends a byte within `ms` milliseconds.
  bool answers_within(int ms) {
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    return ::poll(&p, 1, ms) > 0;
  }

 private:
  int fd_;
  FdStreamBuf in_buf_;
  FdStreamBuf out_buf_;
  std::istream in_;
  std::ostream out_;
};

std::string frame_of(const PartitionRequest& req) {
  std::ostringstream out;
  write_request(req, out);
  return out.str();
}

TEST(TcpServer, RouterServesTwoConnectedClientsWithLocalBytes) {
  std::vector<std::unique_ptr<ShardServer>> shards;
  RouterOptions opts;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<ShardServer>());
    opts.shards.push_back(fast_opts(shards.back()->port()));
  }
  ShardRouter router(opts);
  RouterBackend backend(router);
  TcpServer server(backend, 0);
  PartitionService local;

  // Both clients connect before either sends, and each has a request in
  // flight while the other is served.
  Client a(server.port());
  Client b(server.port());
  const PartitionRequest reqs[] = {make_request(7), make_request(11),
                                   make_request(13), make_request(17)};
  a.send(frame_of(reqs[0]));
  b.send(frame_of(reqs[1]));
  EXPECT_EQ(b.response(), wire(local.execute(reqs[1])));
  b.send(frame_of(reqs[2]));
  EXPECT_EQ(a.response(), wire(local.execute(reqs[0])));
  a.send(frame_of(reqs[3]));
  EXPECT_EQ(a.response(), wire(local.execute(reqs[3])));
  EXPECT_EQ(b.response(), wire(local.execute(reqs[2])));

  // With both still connected, METRICS carries the router section.
  b.send("METRICS\n");
  const std::string metrics = b.metrics_frame();
  EXPECT_NE(metrics.find("\nMETRIC router_requests 4\n"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\nMETRIC router_shards_live 2\n"),
            std::string::npos)
      << metrics;
  a.send("PING\n");
  EXPECT_EQ(a.line(), "PONG");

  // The router keeps its shard connections open; an operator's METRICS
  // to a shard is still answered.
  for (const std::unique_ptr<ShardServer>& shard : shards) {
    Client op(shard->port());
    op.send("METRICS\n");
    EXPECT_NE(op.metrics_frame().find("\nMETRIC requests_total "),
              std::string::npos);
  }
  std::uint64_t shard_requests = 0;
  for (std::size_t i = 0; i < router.num_shards(); ++i)
    shard_requests += router.shard(i).stats().requests;
  EXPECT_EQ(shard_requests, 4u);
}

TEST(TcpServer, ConnectionPastTheCapWaitsForAFreeSlot) {
  ShardServer server;
  std::vector<std::unique_ptr<Client>> held;
  for (std::size_t i = 0; i < TcpServer::kMaxConnections; ++i) {
    held.push_back(std::make_unique<Client>(server.port()));
    held.back()->send("PING\n");
    // Served while every earlier client stays connected and idle.
    ASSERT_EQ(held.back()->line(), "PONG") << "client " << i;
  }
  // The kernel completes this connect into the listen backlog, but no
  // slot is free, so nothing reads it.
  Client extra(server.port());
  extra.send("PING\n");
  EXPECT_FALSE(extra.answers_within(300));
  held.front().reset();
  EXPECT_TRUE(extra.answers_within(10000));
  EXPECT_EQ(extra.line(), "PONG");
}

/// This process's mapped virtual memory in bytes (0 when unknown).
std::size_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0)
      return std::stoull(line.substr(7)) << 10;
  return 0;
}

TEST(TcpServer, FinishedConnectionThreadsAreJoinedWhileServing) {
  ShardServer server;
  const auto ping_and_quit = [&server] {
    Client c(server.port());
    c.send("PING\nQUIT\n");
    EXPECT_EQ(c.line(), "PONG");
    EXPECT_EQ(c.line(), "BYE");
  };
  for (int i = 0; i < 10; ++i) ping_and_quit();
  const std::size_t before = vm_size_bytes();
  if (before == 0) GTEST_SKIP() << "no VmSize in /proc/self/status";
  for (int i = 0; i < 200; ++i) ping_and_quit();
  // A finished thread keeps its stack mapped until it is joined: 200
  // unjoined connection threads map 200 stacks. The loop joins each when
  // its slot takes the next connection, so sequential clients reuse one
  // or two.
  pthread_attr_t attr;
  std::size_t stack = 0;
  pthread_attr_init(&attr);
  pthread_attr_getstacksize(&attr, &stack);
  pthread_attr_destroy(&attr);
  EXPECT_LT(vm_size_bytes(), before + 50 * stack);
}

TEST(Metrics, RouterSectionOnlyPresentForRouters) {
  PartitionService plain;
  for (const auto& [k, v] : plain.snapshot().key_values())
    EXPECT_EQ(k.rfind("router_", 0), std::string::npos) << k;

  RouterOptions opts;  // zero shards: pure local
  ShardRouter router(opts);
  const PartitionResponse resp = router.route(make_request());
  EXPECT_TRUE(resp.ok());
  bool saw_router = false, saw_fallback = false;
  for (const auto& [k, v] : router.snapshot().key_values()) {
    if (k == "router_requests") {
      saw_router = true;
      EXPECT_EQ(v, 1.0);
    }
    if (k == "router_local_fallbacks") saw_fallback = true;
  }
  EXPECT_TRUE(saw_router);
  EXPECT_TRUE(saw_fallback);
  // And the METRICS frame carries the tier's keys.
  std::ostringstream frame;
  write_metrics_frame(router.snapshot(), frame);
  EXPECT_NE(frame.str().find("\nMETRIC router_requests 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace specpart::service
