// Wire protocol of the partitioning service.
//
// Newline-delimited text, chosen so the service can run over any byte
// stream (stdin/stdout pipes, a TCP socket) and so responses can be
// compared byte-for-byte — the serving determinism contract is literally
// "the serialized response is a pure function of the serialized request".
// For that reason the response deliberately carries NO serving metadata:
// no timings, no cache hit/miss flag, no worker id. Those live in the
// metrics subsystem (metrics.h) and the Diagnostics sink, where cold and
// cached runs are *supposed* to differ.
//
// Frame shapes (one frame per message):
//
//   REQUEST id=<tok> k=<int> balance=<float> d=<int> trivial=<0|1>
//           scaling=<tok> selection=<tok> readjust=<0|1> h=<float>
//           net_model=<tok> starts=<int> seed=<u64> graph_lines=<int>
//   <graph_lines lines of hMETIS .hgr text>
//   END
//
//   RESPONSE id=<tok> status=<ok|degraded|budget_exhausted|error> k=<int>
//            cut=<float> scaled_cost=<float> ratio_cut=<float>
//            d_used=<int> converged=<0|1> budget_exhausted=<0|1> n=<int>
//   ASSIGN <n cluster ids>
//   END
//
// Error responses replace everything after `status=error` with
// `error=<message to end of line>` and carry no ASSIGN line. Header keys
// may appear in any order on parse but are always emitted in the order
// above; unknown keys are rejected (a typo must not silently change an
// experiment). The fields retired with lazy ranking still parse when they
// ask for the exact scan, so older clients keep working (SERVING.md).
// Floats are serialized with %.17g so they round-trip to the exact same
// double.
//
// The service also understands three control lines (no END framing):
// `PING` -> `PONG`, `METRICS` -> a `METRICS`-headed key/value frame, and
// `QUIT` -> connection close. See examples/specpart_server.cpp.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline_config.h"
#include "graph/hypergraph.h"
#include "util/status.h"

namespace specpart::service {

/// Longest line the readers buffer, newline excluded, for every line
/// outside a REQUEST payload (which ProtocolLimits bounds) and an ASSIGN
/// line (bounded by its header's n): headers, END and control lines. A
/// REQUEST header is about 250 bytes plus its id.
inline constexpr std::size_t kMaxLineBytes = 64 << 10;

/// Parse-side resource limits: a REQUEST frame announcing (or streaming)
/// more than this is rejected with a structured `bad_request:` Error
/// *before* the parser commits to reading unbounded bytes — an
/// announced-but-absurd graph_lines fails immediately, and a payload line
/// longer than what is left of the byte budget fails before it is
/// buffered.
struct ProtocolLimits {
  /// Max lines a REQUEST's .hgr payload may announce.
  std::size_t max_graph_lines = 4'000'000;
  /// Max total bytes of the .hgr payload.
  std::size_t max_payload_bytes = 256ull << 20;
};

/// One partitioning job: the hypergraph payload plus the shared pipeline
/// knobs (core::PipelineConfig — the same struct the CLI drivers consume,
/// so the service and netlist_tool cannot drift apart).
struct PartitionRequest {
  std::string id = "r0";
  /// Number of clusters. k = 2 splits by best min-cut prefix under
  /// `balance`; k > 2 splits by DP-RP under Scaled Cost.
  std::uint32_t k = 2;
  /// Min cluster fraction for 2-way cuts (0 = best ratio-cut split).
  double balance = 0.45;
  core::PipelineConfig pipeline;
  graph::Hypergraph graph;
};

/// The deterministic result payload (see file comment: serving metadata is
/// deliberately absent).
struct PartitionResponse {
  std::string id;
  /// "ok" | "degraded" | "budget_exhausted" | "error".
  std::string status = "ok";
  /// Non-empty exactly when status == "error".
  std::string error;
  std::uint32_t k = 0;
  double cut = 0.0;
  double scaled_cost = 0.0;
  /// k = 2 only (0 otherwise).
  double ratio_cut = 0.0;
  std::size_t eigenvectors_used = 0;
  bool eigen_converged = true;
  bool budget_exhausted = false;
  std::vector<std::uint32_t> assignment;

  bool ok() const { return status != "error"; }
};

/// Serializes one request frame (REQUEST header + .hgr payload + END).
void write_request(const PartitionRequest& req, std::ostream& out);

/// Parses a request frame given its already-read header line; consumes the
/// graph payload and the END line from `in`. Throws specpart::Error on
/// malformed input; limit violations throw with a `bad_request:` prefix
/// without consuming the oversized payload.
PartitionRequest parse_request(const std::string& header_line,
                               std::istream& in,
                               const ProtocolLimits& limits = {});

/// The next non-blank line of `in` (newline consumed, not stored), or
/// nullopt at EOF. Reads at most `max_bytes` of a line: a longer one
/// throws specpart::Error quoting its first bytes, with the rest unread.
std::optional<std::string> next_content_line(
    std::istream& in, std::size_t max_bytes = kMaxLineBytes);

/// Reads the next request frame, skipping blank lines. Returns nullopt at
/// EOF. Throws specpart::Error when the stream holds a non-REQUEST frame
/// (use the server loop for control lines).
std::optional<PartitionRequest> read_request(std::istream& in,
                                             const ProtocolLimits& limits = {});

/// Serializes one response frame (RESPONSE header [+ ASSIGN] + END).
void write_response(const PartitionResponse& resp, std::ostream& out);

/// Parses a response frame given its already-read header line.
PartitionResponse parse_response(const std::string& header_line,
                                 std::istream& in);

/// Reads the next response frame, skipping blank lines; nullopt at EOF.
std::optional<PartitionResponse> read_response(std::istream& in);

/// Single-line JSON rendering with exactly the wire-format fields, used by
/// `netlist_tool --json` so scripts can diff CLI results against service
/// responses.
std::string response_to_json(const PartitionResponse& resp);

/// StatusCode -> wire status token ("ok" | "degraded" | "budget_exhausted").
std::string_view status_token(StatusCode code);

}  // namespace specpart::service
