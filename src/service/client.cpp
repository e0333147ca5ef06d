#include "service/client.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include <sys/socket.h>

#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/stringutil.h"

namespace specpart::service {

double BackoffPolicy::delay_ms(std::size_t attempt, std::uint64_t salt) const {
  if (attempt == 0) return 0.0;
  const double uncapped =
      base_ms * std::pow(2.0, static_cast<double>(attempt - 1));
  const double capped = std::min(max_ms, uncapped);
  // Deterministic jitter in [0.5, 1.0]: splitmix over (seed, salt, attempt).
  std::uint64_t state = jitter_seed ^ (salt * 0x9E3779B97F4A7C15ULL) ^
                        static_cast<std::uint64_t>(attempt);
  const std::uint64_t word = splitmix64(state);
  const double unit =
      static_cast<double>(word >> 11) * (1.0 / 9007199254740992.0);
  return capped * (0.5 + 0.5 * unit);
}

ShardClient::ShardClient(ShardClientOptions opts) : opts_(std::move(opts)) {}

ShardClient::~ShardClient() {
  std::lock_guard<std::mutex> lock(mutex_);
  disconnect_locked();
}

std::string ShardClient::name() const {
  return strprintf("%s:%u", opts_.host.c_str(),
                   static_cast<unsigned>(opts_.port));
}

ShardState ShardClient::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

ShardClientStats ShardClient::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool ShardClient::admit_locked() {
  switch (state_) {
    case ShardState::kClosed:
      return true;
    case ShardState::kOpen:
      if (Clock::now() - opened_at_ >=
          std::chrono::duration<double>(opts_.breaker.cooldown_seconds)) {
        state_ = ShardState::kHalfOpen;
        probe_in_flight_ = true;
        return true;
      }
      return false;
    case ShardState::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return false;
}

void ShardClient::on_attempt_failure_locked() {
  ++stats_.failures;
  if (state_ == ShardState::kHalfOpen) {
    // The probe failed: straight back to open, cooldown restarted.
    state_ = ShardState::kOpen;
    opened_at_ = Clock::now();
    probe_in_flight_ = false;
    consecutive_failures_ = 0;
    ++stats_.breaker_opens;
    return;
  }
  ++consecutive_failures_;
  if (state_ == ShardState::kClosed &&
      consecutive_failures_ >= opts_.breaker.failure_threshold) {
    state_ = ShardState::kOpen;
    opened_at_ = Clock::now();
    consecutive_failures_ = 0;
    ++stats_.breaker_opens;
  }
}

void ShardClient::on_success_locked() {
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  state_ = ShardState::kClosed;
  ++stats_.successes;
}

bool ShardClient::ensure_connected_locked() {
  if (fd_ >= 0) return true;
  try {
    fd_ = tcp_connect_timeout(opts_.host, opts_.port, opts_.connect_timeout_ms);
  } catch (const Error&) {
    return false;
  }
  rbuf_ = std::make_unique<FdStreamBuf>(fd_);
  rbuf_->set_read_timeout(opts_.io_timeout_ms);
  wbuf_ = std::make_unique<FdStreamBuf>(fd_);
  wbuf_->set_write_timeout(opts_.io_timeout_ms);
  return true;
}

void ShardClient::disconnect_locked() {
  rbuf_.reset();
  wbuf_.reset();
  fd_close(fd_);
  fd_ = -1;
}

bool ShardClient::send_request_locked(const PartitionRequest& req) {
  std::ostringstream frame;
  write_request(req, frame);
  const std::string bytes = frame.str();
  if (SP_FAULT("net.mid_frame_disconnect")) {
    // Send a truncated frame and drop the connection, leaving the shard a
    // garbage stream to cope with (it must survive; we must retry).
    (void)::send(fd_, bytes.data(), bytes.size() / 2, MSG_NOSIGNAL);
    disconnect_locked();
    return false;
  }
  std::ostream out(wbuf_.get());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out.good();
}

std::optional<PartitionResponse> ShardClient::read_response_locked() {
  if (SP_FAULT("net.slow_shard")) return std::nullopt;
  std::istream in(rbuf_.get());
  try {
    return read_response(in);
  } catch (const Error&) {
    // Malformed or truncated response: the framing is lost, treat the
    // connection as dead and let the retry loop resend.
    return std::nullopt;
  }
}

std::optional<PartitionResponse> ShardClient::call(
    const PartitionRequest& req) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!admit_locked()) {
    ++stats_.skipped;
    return std::nullopt;
  }
  ++stats_.requests;
  const std::uint64_t salt = ++call_counter_;
  const std::size_t attempts = opts_.backoff.max_retries + 1;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      const double ms = opts_.backoff.delay_ms(attempt, salt);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
    if (SP_FAULT("net.connect_refused")) {
      disconnect_locked();
      on_attempt_failure_locked();
    } else if (!ensure_connected_locked()) {
      on_attempt_failure_locked();
    } else if (!send_request_locked(req)) {
      disconnect_locked();
      on_attempt_failure_locked();
    } else if (std::optional<PartitionResponse> resp = read_response_locked()) {
      on_success_locked();
      return resp;
    } else {
      disconnect_locked();
      on_attempt_failure_locked();
    }
    // A breaker that opened mid-call (including a failed half-open probe)
    // ends the retry budget early: the shard is being declared down.
    if (state_ == ShardState::kOpen) break;
  }
  return std::nullopt;
}

bool ShardClient::ping() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Deliberately no admit gate (see class comment): the periodic ping IS
  // the recovery probe for an open breaker.
  const auto fail = [this] {
    disconnect_locked();
    on_attempt_failure_locked();
    ++stats_.pings_failed;
    return false;
  };
  if (SP_FAULT("net.connect_refused")) return fail();
  if (!ensure_connected_locked()) {
    on_attempt_failure_locked();
    ++stats_.pings_failed;
    return false;
  }
  std::ostream out(wbuf_.get());
  out << "PING\n";
  out.flush();
  if (!out.good()) return fail();
  if (SP_FAULT("net.slow_shard")) return fail();
  std::istream in(rbuf_.get());
  try {
    const std::optional<std::string> line = next_content_line(in);
    if (line && trim(*line) == "PONG") {
      on_success_locked();
      ++stats_.pings_ok;
      return true;
    }
  } catch (const Error&) {
    // An overlong line; like anything else on the wire, framing is gone.
  }
  return fail();
}

}  // namespace specpart::service
