// ShardClient: deadline-bounded wire-protocol client for one
// specpart_server backend, with bounded retry (exponential backoff plus
// deterministic jitter) and a per-shard circuit breaker.
//
// Failure model. The serving determinism contract makes every response a
// pure function of the request bytes, so requests are idempotent: a
// connect refusal, a mid-frame disconnect, or a deadline expiry is always
// safe to handle by reconnecting and resending. Each call makes up to
// 1 + max_retries attempts; every failed attempt feeds the breaker's
// consecutive-failure count (passive accounting) and every success resets
// it.
//
// Circuit breaker. closed --(K consecutive failures)--> open
// --(cooldown elapses; one probe admitted)--> half-open --(probe
// succeeds)--> closed, or --(probe fails)--> open again. While open, calls
// return immediately without touching the network, so a dead shard costs
// the router a map lookup, not a connect timeout per request. Active
// health PINGs (ShardRouter's health thread) deliberately bypass the
// admission gate: a PING that succeeds against an open breaker is exactly
// the recovery signal, and closes it without waiting for a request-borne
// probe.
//
// Network fault domain (compile-time gated by SPECPART_FAULT_INJECTION,
// armed via fault::arm; see docs/ROBUSTNESS.md):
//   net.connect_refused      -> the attempt fails as if connect() was
//                               refused (connection dropped first)
//   net.mid_frame_disconnect -> half the REQUEST frame is sent, then the
//                               connection is torn down
//   net.slow_shard           -> the response read behaves as a deadline
//                               expiry (slow-shard latency)
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "service/net.h"
#include "service/protocol.h"

namespace specpart::service {

/// Exponential backoff with deterministic jitter. Retry `attempt`
/// (1-based) sleeps min(max_ms, base_ms * 2^(attempt-1)) scaled by a
/// jitter factor in [0.5, 1.0] derived from (jitter_seed, salt, attempt)
/// via splitmix64 — reproducible in tests, decorrelated across callers.
struct BackoffPolicy {
  /// Resend attempts after the first try (0 = fail fast).
  std::size_t max_retries = 2;
  double base_ms = 10.0;
  double max_ms = 200.0;
  std::uint64_t jitter_seed = 0x5eedULL;

  double delay_ms(std::size_t attempt, std::uint64_t salt) const;
};

struct CircuitBreakerOptions {
  /// Consecutive failures that trip closed -> open.
  std::size_t failure_threshold = 3;
  /// Seconds an open breaker waits before admitting a half-open probe.
  double cooldown_seconds = 1.0;
};

/// METRICS renders the state as its value.
enum class ShardState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

struct ShardClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Connection-establishment deadline (ms; < 0 blocks).
  int connect_timeout_ms = 250;
  /// Per-syscall read/write deadline for request/response I/O (ms).
  int io_timeout_ms = 30000;
  BackoffPolicy backoff;
  CircuitBreakerOptions breaker;
};

/// Monotonic counters; a consistent copy is returned by stats().
struct ShardClientStats {
  /// call() invocations admitted by the breaker.
  std::uint64_t requests = 0;
  std::uint64_t successes = 0;
  /// Failed attempts, including retries (passive breaker accounting).
  std::uint64_t failures = 0;
  std::uint64_t retries = 0;
  /// Calls refused outright by an open breaker.
  std::uint64_t skipped = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t pings_ok = 0;
  std::uint64_t pings_failed = 0;
};

/// One backend connection with retries, deadlines and a circuit breaker.
/// Thread-safe; calls to the same shard are serialized over one persistent
/// connection (reconnected lazily after any failure).
class ShardClient {
 public:
  explicit ShardClient(ShardClientOptions opts);
  ~ShardClient();
  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  /// Round-trips one request under the retry budget. nullopt when the
  /// shard could not serve it (breaker open, or every attempt failed) —
  /// the caller's cue to fail over.
  std::optional<PartitionResponse> call(const PartitionRequest& req);

  /// Active health probe (PING -> PONG). Bypasses the breaker gate; its
  /// outcome feeds the same failure/recovery accounting as calls.
  bool ping();

  ShardState state() const;
  ShardClientStats stats() const;
  const ShardClientOptions& options() const { return opts_; }
  /// "host:port" for metrics and logs.
  std::string name() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Breaker admission; may transition open -> half-open.
  bool admit_locked();
  void on_attempt_failure_locked();
  void on_success_locked();
  bool ensure_connected_locked();
  void disconnect_locked();
  bool send_request_locked(const PartitionRequest& req);
  std::optional<PartitionResponse> read_response_locked();

  ShardClientOptions opts_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::unique_ptr<FdStreamBuf> rbuf_;
  std::unique_ptr<FdStreamBuf> wbuf_;
  ShardState state_ = ShardState::kClosed;
  std::size_t consecutive_failures_ = 0;
  /// Half-open: a probe is in flight; further calls are refused until it
  /// settles.
  bool probe_in_flight_ = false;
  Clock::time_point opened_at_{};
  ShardClientStats stats_;
  /// Per-call jitter salt.
  std::uint64_t call_counter_ = 0;
};

}  // namespace specpart::service
