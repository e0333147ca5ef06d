#include "service/protocol.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <istream>
#include <new>
#include <ostream>
#include <sstream>
#include <streambuf>

#include "graph/netlist_io.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/stringutil.h"

namespace specpart::service {

namespace {

/// key=value tokens of a header line after the leading verb. `error=`
/// greedily consumes the rest of the line (messages contain spaces).
std::vector<std::pair<std::string, std::string>> parse_header_fields(
    std::string_view line, std::string_view verb) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::string_view rest = trim(line);
  SP_CHECK_INPUT(starts_with(rest, verb),
                 "protocol: expected " + std::string(verb) + " line, got " +
                     quote_prefix(line));
  rest.remove_prefix(verb.size());
  while (true) {
    rest = trim(rest);
    if (rest.empty()) break;
    const std::size_t eq = rest.find('=');
    SP_CHECK_INPUT(eq != std::string_view::npos && eq > 0,
                   "protocol: malformed field in " + quote_prefix(line));
    const std::string key(rest.substr(0, eq));
    rest.remove_prefix(eq + 1);
    if (key == "error") {  // free-text tail
      fields.emplace_back(key, std::string(trim(rest)));
      break;
    }
    const std::size_t end = rest.find_first_of(" \t");
    const std::string value(
        end == std::string_view::npos ? rest : rest.substr(0, end));
    rest.remove_prefix(
        end == std::string_view::npos ? rest.size() : end);
    fields.emplace_back(key, value);
  }
  return fields;
}

/// A 32-bit field: a value above UINT32_MAX is an error, never a silent
/// truncation. `error_prefix` lets a REQUEST field fail as bad_request.
std::uint32_t parse_u32_field(const std::string& value, const char* what,
                              const char* error_prefix) {
  const std::size_t v = parse_size(value, what);
  if (v > UINT32_MAX)
    throw Error(strprintf("%s%s=%zu exceeds the 32-bit limit %u",
                          error_prefix, what, v, UINT32_MAX));
  return static_cast<std::uint32_t>(v);
}

bool parse_bool_field(const std::string& value, const std::string& key) {
  if (value == "1") return true;
  if (value == "0") return false;
  throw Error("protocol: field " + key + " must be 0 or 1, got " +
              quote_prefix(value));
}

/// Parses an enum-token field with `parse` (one of the core::parse_*
/// functions). An unknown token is a structured bad_request error,
/// whatever the field.
template <typename Parse>
auto parse_enum_field(Parse parse, const std::string& value) {
  try {
    return parse(value);
  } catch (const Error& e) {
    throw Error(std::string("bad_request: ") + e.what());
  }
}

enum class LineRead { kLine, kEof, kTooLong };

/// The get area of any std::streambuf. It is protected, but member
/// pointers named through a derived class reach it on every streambuf
/// ([class.protected]), so append_line can scan it as std::getline does.
struct GetArea : std::streambuf {
  /// The buffered bytes, at most INT_MAX of them (gbump takes an int).
  static std::string_view of(std::streambuf& b) {
    const char* next = (b.*&GetArea::gptr)();
    const auto size = static_cast<std::size_t>((b.*&GetArea::egptr)() - next);
    return {next, std::min<std::size_t>(size, INT_MAX)};
  }
  static void consume(std::streambuf& b, std::size_t n) {
    (b.*&GetArea::gbump)(static_cast<int>(n));
  }
};

/// Appends the next line of `in` to `out`, newline consumed but not
/// stored, at std::getline's cost: a memchr over the buffered bytes. A
/// line longer than `max_bytes` is kTooLong, with `out` holding max_bytes
/// of it and the rest unread.
LineRead append_line(std::istream& in, std::string& out,
                     std::size_t max_bytes) {
  if (!in.good()) return LineRead::kEof;
  std::streambuf& buf = *in.rdbuf();
  std::size_t room = max_bytes;
  for (;;) {
    const int c = buf.sgetc();  // refills an empty get area
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      return room == max_bytes ? LineRead::kEof : LineRead::kLine;
    }
    const std::string_view area = GetArea::of(buf);
    if (area.empty()) {
      // An unbuffered streambuf (std::cin synced with stdio) has no get
      // area and yields one byte at a time.
      if (c == '\n') {
        buf.sbumpc();
        return LineRead::kLine;
      }
      if (room == 0) return LineRead::kTooLong;
      out.push_back(static_cast<char>(c));
      --room;
      buf.sbumpc();
      continue;
    }
    const std::size_t newline = area.find('\n');
    const std::string_view part = area.substr(0, newline);
    if (part.size() > room) {
      out.append(part.substr(0, room));
      GetArea::consume(buf, room);
      return LineRead::kTooLong;
    }
    out.append(part);
    room -= part.size();
    if (newline != std::string_view::npos) {
      GetArea::consume(buf, part.size() + 1);
      return LineRead::kLine;
    }
    GetArea::consume(buf, part.size());
  }
}

void expect_end_line(std::istream& in, std::string_view frame) {
  const std::optional<std::string> line = next_content_line(in);
  SP_CHECK_INPUT(line.has_value(), "protocol: stream ended before END of " +
                                       std::string(frame));
  SP_CHECK_INPUT(trim(*line) == "END", "protocol: expected END after " +
                                           std::string(frame) + ", got " +
                                           quote_prefix(*line));
}

}  // namespace

std::optional<std::string> next_content_line(std::istream& in,
                                             std::size_t max_bytes) {
  std::string line;
  for (;;) {
    line.clear();
    switch (append_line(in, line, max_bytes)) {
      case LineRead::kEof:
        return std::nullopt;
      case LineRead::kTooLong:
        throw Error(strprintf("protocol: line exceeds the %zu-byte limit: ",
                              max_bytes) +
                    quote_prefix(line));
      case LineRead::kLine:
        if (!trim(line).empty()) return line;
    }
  }
}

std::string_view status_token(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kDegraded:
      return "degraded";
    case StatusCode::kBudgetExhausted:
      return "budget_exhausted";
  }
  return "?";
}

void write_request(const PartitionRequest& req, std::ostream& out) {
  std::ostringstream graph_text;
  graph::write_hgr(req.graph, graph_text);
  const std::string payload = graph_text.str();
  std::size_t lines = 0;
  for (const char c : payload)
    if (c == '\n') ++lines;

  const core::PipelineConfig& p = req.pipeline;
  out << "REQUEST id=" << req.id << " k=" << req.k
      << strprintf(" balance=%.17g", req.balance) << " d=" << p.num_eigenvectors
      << " trivial=" << (p.include_trivial ? 1 : 0)
      << " scaling=" << core::coord_scaling_token(p.scaling)
      << " selection=" << core::selection_rule_token(p.selection)
      << " readjust=" << (p.readjust_h ? 1 : 0)
      << strprintf(" h=%.17g", p.h_override)
      << " net_model=" << core::net_model_token(p.net_model)
      << " starts=" << p.num_starts << " seed=" << p.seed;
  // Emitted only for the non-default strategy: absent means flat, so
  // pre-multilevel recorded traffic replays byte-identical.
  if (p.solver.strategy != core::SolverStrategy::kFlat)
    out << " strategy=" << core::solver_strategy_token(p.solver.strategy);
  // And for the objective model: absent means unnormalized, so recorded
  // min-cut traffic stays byte-identical to the pre-objective protocol.
  if (p.objective != core::ObjectiveModel::kUnnormalized)
    out << " objective=" << core::objective_model_token(p.objective);
  out << " graph_lines=" << lines << '\n';
  out << payload;
  out << "END\n";
}

PartitionRequest parse_request(const std::string& header_line,
                               std::istream& in,
                               const ProtocolLimits& limits) {
  PartitionRequest req;
  core::PipelineConfig& p = req.pipeline;
  std::size_t graph_lines = 0;
  bool have_graph_lines = false;
  for (const auto& [key, value] : parse_header_fields(header_line, "REQUEST")) {
    if (key == "id") {
      req.id = value;
    } else if (key == "k") {
      req.k = parse_u32_field(value, "k", "bad_request: ");
    } else if (key == "balance") {
      req.balance = parse_double(value, "balance");
    } else if (key == "d") {
      p.num_eigenvectors = parse_size(value, "d");
    } else if (key == "trivial") {
      p.include_trivial = parse_bool_field(value, key);
    } else if (key == "scaling") {
      p.scaling = parse_enum_field(core::parse_coord_scaling, value);
    } else if (key == "selection") {
      p.selection = parse_enum_field(core::parse_selection_rule, value);
    } else if (key == "readjust") {
      p.readjust_h = parse_bool_field(value, key);
    } else if (key == "h") {
      p.h_override = parse_double(value, "h");
    } else if (key == "lazy") {
      // Retired with lazy ranking, like solver=block: frames from older
      // clients carry lazy=0 and two sizes, which are checked and ignored;
      // lazy=1 asks for the removed path.
      if (value != "0")
        throw Error("bad_request: field lazy: lazy ranking was removed, "
                    "only 0 is accepted, got " + quote_prefix(value));
    } else if (key == "lazy_window" || key == "lazy_rerank") {
      parse_size(value, key);
    } else if (key == "net_model") {
      p.net_model = parse_enum_field(core::parse_net_model, value);
    } else if (key == "starts") {
      p.num_starts = parse_size(value, "starts");
    } else if (key == "seed") {
      p.seed = static_cast<std::uint64_t>(parse_size(value, "seed"));
    } else if (key == "solver") {
      // solver=, strategy= and objective= may be absent (scalar, flat,
      // unnormalized), so traffic recorded before they existed still parses.
      // scalar is the only backend: any other solver= token is a
      // bad_request naming it.
      p.solver.backend = parse_enum_field(core::parse_solver_backend, value);
    } else if (key == "strategy") {
      p.solver.strategy =
          parse_enum_field(core::parse_solver_strategy, value);
    } else if (key == "objective") {
      p.objective = parse_enum_field(core::parse_objective_model, value);
    } else if (key == "graph_lines") {
      graph_lines = parse_size(value, "graph_lines");
      have_graph_lines = true;
    } else {
      throw Error("protocol: unknown REQUEST field " + quote_prefix(key));
    }
  }
  SP_CHECK_INPUT(have_graph_lines,
                 "protocol: REQUEST is missing the graph_lines field");
  SP_CHECK_INPUT(req.k >= 2, "protocol: k must be >= 2");
  // Reject an absurd announced size before committing to read it — the
  // header alone must not be able to make the server loop over terabytes.
  if (graph_lines > limits.max_graph_lines)
    throw Error(strprintf(
        "bad_request: graph_lines=%zu exceeds the %zu-line payload limit",
        graph_lines, limits.max_graph_lines));

  std::string payload;
  for (std::size_t i = 0; i < graph_lines; ++i) {
    // A line may take what is left of the byte budget, so an oversized
    // line fails before it is buffered.
    const LineRead read =
        append_line(in, payload, limits.max_payload_bytes - payload.size());
    SP_CHECK_INPUT(read != LineRead::kEof,
                   "protocol: stream ended inside the graph payload "
                   "(expected " +
                       std::to_string(graph_lines) + " lines)");
    payload += '\n';
    if (read == LineRead::kTooLong ||
        payload.size() > limits.max_payload_bytes)
      throw Error(strprintf(
          "bad_request: request payload exceeds the %zu-byte limit",
          limits.max_payload_bytes));
  }
  // Every declared net needs a line of its own, so a header promising more
  // nets than the payload holds is rejected before anything is decoded.
  const graph::HgrHeader hgr = graph::read_hgr_header(payload);
  if (hgr.num_nets > graph_lines - 1)
    throw Error(strprintf(
        "bad_request: .hgr header declares %zu nets in a %zu-line payload",
        hgr.num_nets, graph_lines));
  if (SP_FAULT("service.decode_bad_alloc")) throw std::bad_alloc();
  req.graph = graph::read_hgr(std::string_view(payload));
  expect_end_line(in, "REQUEST");
  return req;
}

std::optional<PartitionRequest> read_request(std::istream& in,
                                             const ProtocolLimits& limits) {
  const std::optional<std::string> header = next_content_line(in);
  if (!header) return std::nullopt;
  return parse_request(*header, in, limits);
}

void write_response(const PartitionResponse& resp, std::ostream& out) {
  out << "RESPONSE id=" << resp.id << " status=" << resp.status;
  if (resp.status == "error") {
    out << " error=" << resp.error << '\n';
    out << "END\n";
    return;
  }
  out << " k=" << resp.k << strprintf(" cut=%.17g", resp.cut)
      << strprintf(" scaled_cost=%.17g", resp.scaled_cost)
      << strprintf(" ratio_cut=%.17g", resp.ratio_cut)
      << " d_used=" << resp.eigenvectors_used
      << " converged=" << (resp.eigen_converged ? 1 : 0)
      << " budget_exhausted=" << (resp.budget_exhausted ? 1 : 0)
      << " n=" << resp.assignment.size() << '\n';
  // The ASSIGN line is formatted into one buffer and written once: a space
  // and at most 10 digits per id.
  constexpr std::string_view kVerb = "ASSIGN";
  std::string line(kVerb.size() + 11 * resp.assignment.size() + 1, '\0');
  char* cursor = std::copy(kVerb.begin(), kVerb.end(), line.data());
  for (const std::uint32_t c : resp.assignment) {
    *cursor++ = ' ';
    cursor = std::to_chars(cursor, line.data() + line.size(), c).ptr;
  }
  *cursor++ = '\n';
  out.write(line.data(), cursor - line.data());
  out << "END\n";
}

PartitionResponse parse_response(const std::string& header_line,
                                 std::istream& in) {
  PartitionResponse resp;
  std::size_t n = 0;
  bool have_n = false;
  for (const auto& [key, value] :
       parse_header_fields(header_line, "RESPONSE")) {
    if (key == "id") {
      resp.id = value;
    } else if (key == "status") {
      resp.status = value;
    } else if (key == "error") {
      resp.error = value;
    } else if (key == "k") {
      resp.k = parse_u32_field(value, "k", "protocol: ");
    } else if (key == "cut") {
      resp.cut = parse_double(value, "cut");
    } else if (key == "scaled_cost") {
      resp.scaled_cost = parse_double(value, "scaled_cost");
    } else if (key == "ratio_cut") {
      resp.ratio_cut = parse_double(value, "ratio_cut");
    } else if (key == "d_used") {
      resp.eigenvectors_used = parse_size(value, "d_used");
    } else if (key == "converged") {
      resp.eigen_converged = parse_bool_field(value, key);
    } else if (key == "budget_exhausted") {
      resp.budget_exhausted = parse_bool_field(value, key);
    } else if (key == "n") {
      n = parse_size(value, "n");
      have_n = true;
    } else {
      throw Error("protocol: unknown RESPONSE field " + quote_prefix(key));
    }
  }
  if (resp.status == "error") {
    expect_end_line(in, "RESPONSE");
    return resp;
  }
  SP_CHECK_INPUT(have_n, "protocol: RESPONSE is missing the n field");
  // write_response spends at most 11 bytes per id.
  const std::size_t assign_cap = n < (SIZE_MAX - kMaxLineBytes) / 11
                                     ? kMaxLineBytes + 11 * n
                                     : SIZE_MAX;
  const std::optional<std::string> assign_line =
      next_content_line(in, assign_cap);
  SP_CHECK_INPUT(assign_line.has_value(),
                 "protocol: stream ended before the ASSIGN line");
  const std::vector<std::string> tokens = split_ws(*assign_line);
  SP_CHECK_INPUT(!tokens.empty() && tokens[0] == "ASSIGN",
                 "protocol: expected ASSIGN line, got " +
                     quote_prefix(*assign_line));
  SP_CHECK_INPUT(tokens.size() == n + 1,
                 strprintf("protocol: ASSIGN holds %zu ids, header says n=%zu",
                           tokens.size() - 1, n));
  resp.assignment.reserve(n);
  for (std::size_t i = 1; i < tokens.size(); ++i)
    resp.assignment.push_back(
        parse_u32_field(tokens[i], "ASSIGN id", "protocol: "));
  expect_end_line(in, "RESPONSE");
  return resp;
}

std::optional<PartitionResponse> read_response(std::istream& in) {
  const std::optional<std::string> header = next_content_line(in);
  if (!header) return std::nullopt;
  return parse_response(*header, in);
}

std::string response_to_json(const PartitionResponse& resp) {
  std::ostringstream out;
  out << "{\"id\": \"" << resp.id << "\", \"status\": \"" << resp.status
      << "\"";
  if (resp.status == "error") {
    std::string escaped;
    for (const char c : resp.error) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out << ", \"error\": \"" << escaped << "\"}";
    return out.str();
  }
  out << ", \"k\": " << resp.k << strprintf(", \"cut\": %.17g", resp.cut)
      << strprintf(", \"scaled_cost\": %.17g", resp.scaled_cost)
      << strprintf(", \"ratio_cut\": %.17g", resp.ratio_cut)
      << ", \"d_used\": " << resp.eigenvectors_used
      << ", \"converged\": " << (resp.eigen_converged ? "true" : "false")
      << ", \"budget_exhausted\": "
      << (resp.budget_exhausted ? "true" : "false") << ", \"n\": "
      << resp.assignment.size() << ", \"assignment\": [";
  for (std::size_t i = 0; i < resp.assignment.size(); ++i)
    out << (i ? ", " : "") << resp.assignment[i];
  out << "]}";
  return out.str();
}

}  // namespace specpart::service
