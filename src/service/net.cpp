#include "service/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.h"
#include "util/stringutil.h"

namespace specpart::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

/// Resolves the loopback-friendly host spellings to a dotted quad.
std::string resolve_host(const std::string& host) {
  return host.empty() || host == "localhost" ? "127.0.0.1" : host;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

int tcp_listen(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    fd_close(fd);
    throw_errno(strprintf("bind to port %u", static_cast<unsigned>(port)));
  }
  if (::listen(fd, 16) < 0) {
    fd_close(fd);
    throw_errno("listen");
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) < 0) {
      fd_close(fd);
      throw_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

int tcp_accept(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  return tcp_connect_timeout(host, port, -1);
}

int tcp_connect_timeout(const std::string& host, std::uint16_t port,
                        int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = resolve_host(host);
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    fd_close(fd);
    throw Error("tcp_connect: cannot parse host '" + host +
                "' (use a dotted-quad IPv4 address or 'localhost')");
  }

  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fd_close(fd);
    throw_errno("fcntl(O_NONBLOCK)");
  }
  const std::string target =
      strprintf("%s:%u", resolved.c_str(), static_cast<unsigned>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      fd_close(fd);
      throw_errno("connect to " + target);
    }
    // Await completion of the in-flight connect under the deadline.
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    int rc;
    do {
      rc = ::poll(&p, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      fd_close(fd);
      throw_errno("poll(connect to " + target + ")");
    }
    if (rc == 0) {
      fd_close(fd);
      throw Error(strprintf("connect to %s: timed out after %d ms",
                            target.c_str(), timeout_ms));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      fd_close(fd);
      throw Error("connect to " + target + ": " +
                  std::strerror(err != 0 ? err : errno));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    fd_close(fd);
    throw_errno("fcntl(restore flags)");
  }
  set_nodelay(fd);
  return fd;
}

void fd_close(int fd) {
  if (fd >= 0) ::close(fd);
}

void fd_shutdown(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

FdStreamBuf::FdStreamBuf(int fd) : fd_(fd) {
  setg(rbuf_, rbuf_, rbuf_);
  setp(wbuf_, wbuf_ + kBufSize);
}

bool FdStreamBuf::wait_ready(short events, int timeout_ms) {
  if (timeout_ms < 0) return true;
  pollfd p{};
  p.fd = fd_;
  p.events = events;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;  // ready, hung up, or errored: let the
                              // syscall report the condition
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return true;  // poll itself failed; fall through to the syscall
  }
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  for (;;) {
    if (!wait_ready(POLLIN, read_timeout_ms_)) return traits_type::eof();
    const ssize_t n = ::read(fd_, rbuf_, kBufSize);
    if (n > 0) {
      setg(rbuf_, rbuf_, rbuf_ + n);
      return traits_type::to_int_type(*gptr());
    }
    if (n == 0) return traits_type::eof();
    if (errno == EINTR) continue;
    return traits_type::eof();
  }
}

bool FdStreamBuf::flush_write() {
  const char* p = pbase();
  // Loop partial transfers: a short send/write must not truncate the
  // frame, and a gone peer must surface as a stream error, not SIGPIPE.
  while (p < pptr()) {
    if (!wait_ready(POLLOUT, write_timeout_ms_)) return false;
    const std::size_t len = static_cast<std::size_t>(pptr() - p);
    ssize_t n;
    if (!not_socket_) {
      n = ::send(fd_, p, len, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        not_socket_ = true;
        continue;
      }
    } else {
      n = ::write(fd_, p, len);
    }
    if (n > 0) {
      p += n;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  setp(wbuf_, wbuf_ + kBufSize);
  return true;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type c) {
  if (!flush_write()) return traits_type::eof();
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(c);
    pbump(1);
  }
  return traits_type::not_eof(c);
}

int FdStreamBuf::sync() { return flush_write() ? 0 : -1; }

}  // namespace specpart::service
