#include "service/server.h"

#include <condition_variable>
#include <deque>
#include <istream>
#include <new>
#include <ostream>
#include <string>
#include <system_error>
#include <utility>

#include "service/net.h"
#include "service/router.h"
#include "util/error.h"
#include "util/stringutil.h"

namespace specpart::service {

bool ServiceBackend::try_submit(PartitionRequest req,
                                std::future<PartitionResponse>& out) {
  return svc_.try_submit(std::move(req), out);
}

MetricsSnapshot ServiceBackend::metrics() { return svc_.snapshot(); }

bool RouterBackend::try_submit(PartitionRequest req,
                               std::future<PartitionResponse>& out) {
  // Deferred: route() runs when the writer thread calls future.get(), so
  // the reader keeps parsing while earlier requests are in flight and
  // responses still leave in FIFO order.
  out = std::async(std::launch::deferred,
                   [this, r = std::move(req)] { return router_.route(r); });
  return true;
}

MetricsSnapshot RouterBackend::metrics() { return router_.snapshot(); }

void write_metrics_frame(const MetricsSnapshot& snap, std::ostream& out) {
  out << "METRICS\n";
  for (const auto& [key, value] : snap.key_values())
    out << "METRIC " << key << strprintf(" %.17g", value) << '\n';
  out << "END\n";
}

void serve_stream(StreamBackend& backend, std::istream& in, std::ostream& out,
                  const ProtocolLimits& limits) {
  struct Item {
    enum Kind { kResponse, kReady, kPong, kMetrics, kBye } kind;
    std::future<PartitionResponse> future;  // kResponse
    PartitionResponse response;             // kReady
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Item> items;
  const auto push = [&](Item item) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      items.push_back(std::move(item));
    }
    cv.notify_one();
  };
  // The reader (below) parses frames and enqueues work; this writer emits
  // each response as soon as its future resolves. The split matters: a
  // pipelining client only sends more requests after it reads responses,
  // so a server that writes only between reads deadlocks once the
  // client's window fills. The queue preserves request order, so clients
  // still read responses strictly FIFO.
  std::thread writer([&] {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !items.empty(); });
        item = std::move(items.front());
        items.pop_front();
      }
      switch (item.kind) {
        case Item::kResponse:
          write_response(item.future.get(), out);
          break;
        case Item::kReady:
          write_response(item.response, out);
          break;
        case Item::kPong:
          out << "PONG\n";
          break;
        case Item::kMetrics:
          // Snapshot here, after all earlier responses went out, so the
          // frame reflects at least everything the client has seen.
          write_metrics_frame(backend.metrics(), out);
          break;
        case Item::kBye:
          out << "BYE\n";
          out.flush();
          return;
      }
      out.flush();
    }
  });

  const auto push_error = [&](std::string error) {
    Item item;
    item.kind = Item::kReady;
    item.response.id = "?";
    item.response.status = "error";
    item.response.error = std::move(error);
    push(std::move(item));
  };
  // A malformed frame poisons the rest of the stream (framing is lost), so
  // every failure below reports and stops this connection.
  try {
    while (const std::optional<std::string> line = next_content_line(in)) {
      const std::string_view stripped = trim(*line);
      if (starts_with(stripped, "REQUEST")) {
        PartitionRequest req = parse_request(*line, in, limits);
        Item item;
        // Saved before the move: try_submit consumes the request even
        // when it rejects.
        std::string req_id = req.id;
        if (backend.try_submit(std::move(req), item.future)) {
          item.kind = Item::kResponse;
        } else {
          // Admission control: the rejection is itself an error
          // response, so clients see *why* instead of a stall.
          item.kind = Item::kReady;
          item.response.id = std::move(req_id);
          item.response.status = "error";
          item.response.error = "rejected: queue full";
        }
        push(std::move(item));
      } else if (stripped == "PING") {
        push(Item{Item::kPong, {}, {}});
      } else if (stripped == "METRICS") {
        push(Item{Item::kMetrics, {}, {}});
      } else if (stripped == "QUIT") {
        break;
      } else {
        throw Error("unknown frame " + quote_prefix(stripped));
      }
    }
  } catch (const Error& e) {
    // Every parse-level failure (truncated payload, oversized payload or
    // line, garbage frame) is surfaced under the one structured
    // bad_request token.
    push_error(starts_with(e.what(), "bad_request")
                   ? e.what()
                   : std::string("bad_request: ") + e.what());
  } catch (const std::bad_alloc&) {
    // A frame whose decode (or line) outgrew memory: the memory is back,
    // so answer and close this connection instead of the process.
    push_error("out_of_memory: the server could not allocate the request");
  }
  push(Item{Item::kBye, {}, {}});
  writer.join();
}

TcpServer::TcpServer(StreamBackend& backend, std::uint16_t port,
                     ProtocolLimits limits, double idle_timeout_seconds)
    : backend_(backend),
      limits_(limits),
      idle_timeout_seconds_(idle_timeout_seconds) {
  listen_fd_ = tcp_listen(port, &port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::accept_loop() {
  for (;;) {
    std::size_t slot = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      slot_freed_.wait(lock, [this, &slot] {
        if (stopping_) return true;
        for (slot = 0; slot < kMaxConnections; ++slot)
          if (slots_[slot].fd < 0) return true;
        return false;
      });
      if (stopping_) return;
    }
    // The slot's previous connection thread has released its fd; join it
    // before the slot takes the next connection.
    if (slots_[slot].thread.joinable()) slots_[slot].thread.join();
    int fd = -1;
    try {
      fd = tcp_accept(listen_fd_);
    } catch (const Error& e) {
      // stop()/kill() shut the listener down; anything else is a failure
      // wait() reports.
      std::lock_guard<std::mutex> lock(mutex_);
      if (!stopping_) accept_error_ = e.what();
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Lost the race with kill(): this fd was accepted after the sever
      // pass, so sever it ourselves instead of serving it.
      fd_shutdown(fd);
      fd_close(fd);
      return;
    }
    slots_[slot].fd = fd;
    try {
      slots_[slot].thread =
          std::thread([this, slot, fd] { serve_connection(slot, fd); });
    } catch (const std::system_error&) {
      // No thread to serve it: refuse this connection, keep the server.
      slots_[slot].fd = -1;
      fd_close(fd);
    }
  }
}

void TcpServer::serve_connection(std::size_t slot, int fd) {
  {
    FdStreamBuf in_buf(fd);
    FdStreamBuf out_buf(fd);
    if (idle_timeout_seconds_ > 0.0)
      in_buf.set_read_timeout(
          static_cast<int>(idle_timeout_seconds_ * 1000.0));
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    try {
      serve_stream(backend_, in, out, limits_);
    } catch (const std::exception&) {
      // Connection-level failure (its writer thread could not start, an
      // allocation failed); drop the connection, keep the server.
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[slot].fd = -1;
  }
  slot_freed_.notify_one();
  fd_close(fd);
}

void TcpServer::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!accept_error_.empty()) throw Error(accept_error_);
}

void TcpServer::kill() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    fd_shutdown(listen_fd_);
    for (const Slot& s : slots_) fd_shutdown(s.fd);
  }
  slot_freed_.notify_all();
}

void TcpServer::stop() {
  kill();
  if (accept_thread_.joinable()) accept_thread_.join();
  // No connection can start now; join the ones still running.
  for (Slot& s : slots_)
    if (s.thread.joinable()) s.thread.join();
  fd_close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace specpart::service
