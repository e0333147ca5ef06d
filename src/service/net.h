// Minimal POSIX TCP plumbing for the service binaries: listen / accept /
// connect helpers plus a std::streambuf over a file descriptor, so the
// wire protocol (protocol.h) reads and writes std::iostreams no matter
// whether the transport is a pipe, stdin/stdout, or a socket.
//
// Hardened for fleet use (PR 7): writes use send(MSG_NOSIGNAL) and loop
// over partial transfers, so a client that disconnects mid-response can no
// longer SIGPIPE-kill the process; reads and writes optionally carry
// poll-based deadlines, so a stalled peer releases its thread instead of
// pinning it forever; and tcp_connect_timeout bounds connection
// establishment the same way. Still deliberately tiny: IPv4
// loopback-oriented, no TLS — fleet-grade transport security belongs in
// front of it.
#pragma once

#include <cstdint>
#include <streambuf>
#include <string>

namespace specpart::service {

/// Opens a listening TCP socket on `port` (0 = kernel-assigned) on every
/// IPv4 interface (INADDR_ANY).
/// Returns the listening fd; *bound_port receives the actual port.
/// Throws specpart::Error on failure.
int tcp_listen(std::uint16_t port, std::uint16_t* bound_port = nullptr);

/// Blocks until a client connects; returns the connection fd.
int tcp_accept(int listen_fd);

/// Connects to host:port (host = dotted quad or "localhost").
int tcp_connect(const std::string& host, std::uint16_t port);

/// Connects with a poll-based deadline (non-blocking connect). Throws
/// specpart::Error on refusal, unreachable host, or deadline expiry.
/// timeout_ms < 0 blocks indefinitely (same as tcp_connect).
int tcp_connect_timeout(const std::string& host, std::uint16_t port,
                        int timeout_ms);

/// Closes an fd (ignores errors; safe on -1).
void fd_close(int fd);

/// Half-closes both directions of a socket so the peer's (and any local
/// thread's) blocked reads fail immediately, without racing fd reuse the
/// way close() does. Ignores errors; safe on -1 and non-sockets. Also the
/// documented way to wake a thread blocked in tcp_accept.
void fd_shutdown(int fd);

/// Buffered std::streambuf over a file descriptor, usable for both
/// reading and writing (bidirectional socket I/O). Does not own the fd.
///
/// Deadlines: set_read_timeout / set_write_timeout arm poll-based
/// deadlines per underlying read/write syscall (milliseconds; < 0 = block
/// forever, the default). A timed-out read reports EOF to the stream, so
/// `std::getline` on a stalled connection returns instead of pinning the
/// reader thread. Writes prefer send(MSG_NOSIGNAL) and fall back to
/// write() on non-socket fds, so a vanished peer yields a stream error,
/// never SIGPIPE.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd);

  /// Per-syscall read deadline in ms (< 0 = block forever).
  void set_read_timeout(int ms) { read_timeout_ms_ = ms; }
  /// Per-syscall write deadline in ms (< 0 = block forever).
  void set_write_timeout(int ms) { write_timeout_ms_ = ms; }

 protected:
  int_type underflow() override;
  int_type overflow(int_type c) override;
  int sync() override;

 private:
  bool flush_write();
  /// Polls for readiness under the given deadline; true when the fd is
  /// ready (or no deadline is armed), false on deadline expiry.
  bool wait_ready(short events, int timeout_ms);

  static constexpr std::size_t kBufSize = 1 << 16;
  int fd_;
  int read_timeout_ms_ = -1;
  int write_timeout_ms_ = -1;
  /// Latched after send() reports ENOTSOCK (pipes, stdio); writes then use
  /// write(), relying on the caller ignoring SIGPIPE for those fds.
  bool not_socket_ = false;
  char rbuf_[kBufSize];
  char wbuf_[kBufSize];
};

}  // namespace specpart::service
