// The serving loop behind specpart_server, specpart_router, the
// multi-shard loadgen and the tests.
//
// serve_stream() speaks the wire protocol (protocol.h) over any iostream
// pair: REQUEST frames are admitted through a StreamBackend, control lines
// (PING / METRICS / QUIT) are answered in order, and a dedicated writer
// thread emits each response as soon as it is ready so pipelining clients
// cannot deadlock the reader. No line is buffered past its cap
// (kMaxLineBytes, or what is left of a REQUEST's payload budget).
// Malformed or over-limit frames get a structured `bad_request:` error
// response before the connection closes (framing is lost after garbage,
// so closing is the only safe move).
//
// TcpServer runs the accept loop: it serves one StreamBackend on a port,
// one serve_stream per connection on its own thread, up to
// kMaxConnections at once, and joins each finished connection thread when
// its slot takes the next connection. ShardServer is a PartitionService
// behind a TcpServer on a kernel-assigned port. kill() is the
// fault-injection hammer: it severs the listener AND every active
// connection without draining, exactly what a crashed shard looks like to
// a router.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "service/protocol.h"
#include "service/service.h"

namespace specpart::service {

class ShardRouter;

/// What a serving loop does with an admitted request: PartitionService
/// (queue + workers) for specpart_server, ShardRouter for specpart_router.
class StreamBackend {
 public:
  virtual ~StreamBackend() = default;

  /// Non-blocking admission; false on rejection (queue full). On success
  /// `out` resolves to the response (responses are written in submission
  /// order).
  virtual bool try_submit(PartitionRequest req,
                          std::future<PartitionResponse>& out) = 0;

  /// Snapshot rendered into the METRICS frame.
  virtual MetricsSnapshot metrics() = 0;
};

/// StreamBackend over a PartitionService.
class ServiceBackend : public StreamBackend {
 public:
  explicit ServiceBackend(PartitionService& svc) : svc_(svc) {}
  bool try_submit(PartitionRequest req,
                  std::future<PartitionResponse>& out) override;
  MetricsSnapshot metrics() override;

 private:
  PartitionService& svc_;
};

/// StreamBackend over a ShardRouter. Routing runs lazily on the writer
/// thread (deferred future), which keeps the reader free to parse frames
/// while preserving FIFO response order; the router never rejects.
class RouterBackend : public StreamBackend {
 public:
  explicit RouterBackend(ShardRouter& router) : router_(router) {}
  bool try_submit(PartitionRequest req,
                  std::future<PartitionResponse>& out) override;
  MetricsSnapshot metrics() override;

 private:
  ShardRouter& router_;
};

/// Serves one connection's byte streams until EOF, QUIT, or a poisoned
/// frame, parsing REQUEST payloads under `limits` (protocol.h). See file
/// comment for the reader/writer split.
void serve_stream(StreamBackend& backend, std::istream& in, std::ostream& out,
                  const ProtocolLimits& limits = {});

/// Renders a METRICS control frame (METRIC key value lines + END).
void write_metrics_frame(const MetricsSnapshot& snap, std::ostream& out);

/// The TCP accept loop: serves `backend` on a port, one serve_stream per
/// connection, each on its own thread.
class TcpServer {
 public:
  /// Connections served at once. The loop accepts only while a slot is
  /// free, so a connection past the cap waits in the listen backlog and
  /// starts no thread; a served one holds two (serve_stream's reader and
  /// writer).
  static constexpr std::size_t kMaxConnections = 64;

  /// Listens on every IPv4 interface at `port` (0 = kernel-assigned) and
  /// starts accepting. `idle_timeout_seconds` > 0 closes a connection that
  /// sends no byte for that long, releasing its threads. Throws
  /// specpart::Error when the port cannot be bound.
  TcpServer(StreamBackend& backend, std::uint16_t port,
            ProtocolLimits limits = {}, double idle_timeout_seconds = 0.0);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Blocks until the accept loop ends; throws specpart::Error when it
  /// ended because the listener failed rather than by stop() or kill().
  /// Not to be called concurrently with stop().
  void wait();

  /// Graceful stop: stops accepting, severs remaining connections, joins.
  void stop();

  /// Crash simulation: severs the listener and every active connection
  /// immediately (no drain), so in-flight peers see mid-stream resets.
  /// The object stays joinable; stop()/destruction cleans up.
  void kill();

 private:
  struct Slot {
    /// The connection fd while its thread serves it; -1 once that thread
    /// is done with (and about to close) it, so kill() can never shut
    /// down a recycled fd number.
    int fd = -1;
    /// The slot's latest connection thread, joined by the accept loop
    /// before the slot takes the next connection.
    std::thread thread;
  };

  void accept_loop();
  void serve_connection(std::size_t slot, int fd);

  StreamBackend& backend_;
  const ProtocolLimits limits_;
  const double idle_timeout_seconds_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::mutex mutex_;
  /// Signalled when a slot frees up or stopping_ is set.
  std::condition_variable slot_freed_;
  bool stopping_ = false;
  /// Why the accept loop ended, when the listener failed.
  std::string accept_error_;
  /// Slot fds are guarded by mutex_; slot threads belong to the accept
  /// loop, and to stop() once the loop has ended.
  std::array<Slot, kMaxConnections> slots_;
  std::thread accept_thread_;
};

/// An in-process specpart_server: a PartitionService behind a TcpServer on
/// a kernel-assigned port. Used by the multi-shard loadgen and the tests.
class ShardServer {
 public:
  explicit ShardServer(ServiceOptions opts = {})
      : svc_(opts), backend_(svc_), server_(backend_, 0) {}

  std::uint16_t port() const { return server_.port(); }
  void stop() { server_.stop(); }
  void kill() { server_.kill(); }

 private:
  PartitionService svc_;
  ServiceBackend backend_;
  TcpServer server_;
};

}  // namespace specpart::service
