#include "graph/netlist_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <iterator>
#include <map>
#include <ostream>

#include "util/error.h"
#include "util/stringutil.h"

namespace specpart::graph {

namespace {

/// Upper bound on header-declared counts. A count above this is either a
/// corrupted file or an allocation-scale attack; real netlists are orders
/// of magnitude smaller.
constexpr std::size_t kMaxDeclaredCount = std::size_t{1} << 30;

/// std::isspace in the "C" locale, which the library never leaves: ' ',
/// '\t', '\n', '\v', '\f' and '\r'. Written out so that the scanner's hot
/// loops make no calls.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

std::string_view trim_space(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Splits the next whitespace-delimited token off the front of `rest`;
/// returns an empty view once `rest` holds no more tokens.
std::string_view next_token(std::string_view& rest) {
  std::size_t i = 0;
  while (i < rest.size() && is_space(rest[i])) ++i;
  std::size_t j = i;
  while (j < rest.size() && !is_space(rest[j])) ++j;
  const std::string_view token = rest.substr(i, j - i);
  rest.remove_prefix(j);
  return token;
}

/// Reads the next whitespace-delimited token of `rest` as parse_size would,
/// accumulating its digits in the pass that finds its end; false once `rest`
/// holds no more tokens. A token parse_size rejects is handed to it, so the
/// error carries parse_size's exact message.
bool next_size(std::string_view& rest, std::string_view what,
               std::size_t& value) {
  std::size_t i = 0;
  while (i < rest.size() && is_space(rest[i])) ++i;
  if (i == rest.size()) return false;
  const std::size_t begin = i;
  value = 0;
  for (; i < rest.size(); ++i) {
    const auto digit = static_cast<std::size_t>(rest[i] - '0');
    if (digit > 9 || value > (SIZE_MAX - digit) / 10) break;
    value = value * 10 + digit;
  }
  if (i < rest.size() && !is_space(rest[i])) {
    while (i < rest.size() && !is_space(rest[i])) ++i;
    value = parse_size(rest.substr(begin, i - begin), what);
  }
  rest.remove_prefix(i);
  return true;
}

/// The line scanner both parsers share: walks the content lines of a text
/// in place, skipping blank lines and '%' / '#' comment lines.
class ContentLines {
 public:
  explicit ContentLines(std::string_view text) : rest_(text) {}

  /// Stores the next content line, trimmed, in `line`; false at the end.
  bool next(std::string_view& line) {
    while (!rest_.empty()) {
      const std::size_t eol = rest_.find('\n');
      line = trim_space(rest_.substr(0, eol));
      rest_.remove_prefix(eol == std::string_view::npos ? rest_.size()
                                                        : eol + 1);
      if (!line.empty() && line.front() != '%' && line.front() != '#')
        return true;
    }
    return false;
  }

 private:
  std::string_view rest_;
};

std::string read_all(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

HgrHeader parse_hgr_header(ContentLines& lines) {
  std::string_view line;
  SP_CHECK_INPUT(lines.next(line), ".hgr: missing header line");
  std::string_view fields[4];
  std::size_t count = 0;
  while (count < 4 && !(fields[count] = next_token(line)).empty()) ++count;
  SP_CHECK_INPUT(count >= 2 && count <= 3,
                 ".hgr: header must be '<#nets> <#vertices> [fmt]'");
  HgrHeader header;
  header.num_nets = parse_size(fields[0], ".hgr #nets");
  header.num_nodes = parse_size(fields[1], ".hgr #vertices");
  SP_CHECK_INPUT(header.num_nets <= kMaxDeclaredCount,
                 ".hgr: declared net count is implausibly large");
  SP_CHECK_INPUT(header.num_nodes <= kMaxDeclaredCount,
                 ".hgr: declared vertex count is implausibly large");
  header.fmt = count == 3 ? parse_size(fields[2], ".hgr fmt") : 0;
  SP_CHECK_INPUT(header.fmt == 0 || header.fmt == 1 || header.fmt == 10 ||
                     header.fmt == 11,
                 ".hgr: fmt must be one of 0, 1, 10, 11");
  return header;
}

}  // namespace

HgrHeader read_hgr_header(std::string_view text) {
  ContentLines lines(text);
  return parse_hgr_header(lines);
}

Hypergraph read_hgr(std::string_view text, Diagnostics* diag) {
  ContentLines lines(text);
  const HgrHeader header = parse_hgr_header(lines);
  const bool has_net_weights = header.fmt == 1 || header.fmt == 11;
  const bool has_node_weights = header.fmt == 10 || header.fmt == 11;

  // Sized by the bytes at hand, never by the header alone: a net line takes
  // at least two of them.
  const std::size_t net_capacity =
      std::min(header.num_nets, text.size() / 2 + 1);
  std::vector<std::size_t> offsets;
  offsets.reserve(net_capacity + 1);
  offsets.push_back(0);
  std::vector<double> weights;
  if (has_net_weights) weights.reserve(net_capacity);
  std::vector<NodeId> pins;
  std::size_t nets_with_duplicates = 0;
  std::vector<char> pin_seen(header.num_nodes, 0);
  std::string_view line;
  for (std::size_t e = 0; e < header.num_nets; ++e) {
    SP_CHECK_INPUT(lines.next(line),
                   ".hgr: fewer net lines than the header promises");
    if (has_net_weights) {
      const std::string_view weight = next_token(line);
      SP_CHECK_INPUT(!weight.empty(), ".hgr: weighted net line is empty");
      weights.push_back(parse_double(weight, ".hgr net weight"));
    }
    const std::size_t first = pins.size();
    bool duplicate = false;
    for (std::size_t v = 0; next_size(line, ".hgr pin", v);) {
      SP_CHECK_INPUT(v >= 1 && v <= header.num_nodes,
                     ".hgr: pin id out of range (ids are 1-based)");
      duplicate = duplicate || pin_seen[v - 1] != 0;
      pin_seen[v - 1] = 1;
      pins.push_back(static_cast<NodeId>(v - 1));
    }
    SP_CHECK_INPUT(pins.size() > first, ".hgr: net with no pins");
    for (std::size_t i = first; i < pins.size(); ++i) pin_seen[pins[i]] = 0;
    nets_with_duplicates += duplicate ? 1 : 0;
    offsets.push_back(pins.size());
  }
  if (nets_with_duplicates > 0 && diag != nullptr)
    diag->warn("parse", strprintf(".hgr: %zu net(s) list a pin more than "
                                  "once; duplicates merged",
                                  nets_with_duplicates));
  if (has_node_weights) {
    // Vertex weights are parsed for format fidelity but the partitioners in
    // this library treat modules as unit-size (as the paper does); a future
    // weighted-module extension would store them on the Hypergraph.
    for (std::size_t v = 0; v < header.num_nodes; ++v)
      SP_CHECK_INPUT(lines.next(line), ".hgr: missing vertex weight lines");
  }
  SP_CHECK_INPUT(!lines.next(line),
                 ".hgr: trailing garbage after the declared net count");
  return Hypergraph::from_csr(header.num_nodes, std::move(offsets),
                              std::move(pins), std::move(weights));
}

Hypergraph read_hgr(std::istream& in, Diagnostics* diag) {
  const std::string text = read_all(in);
  return read_hgr(std::string_view(text), diag);
}

Hypergraph read_hgr_file(const std::string& path, Diagnostics* diag) {
  std::ifstream in(path);
  SP_CHECK_INPUT(in.good(), "cannot open .hgr file: " + path);
  return read_hgr(in, diag);
}

void write_hgr(const Hypergraph& h, std::ostream& out) {
  bool weighted = false;
  for (NetId e = 0; e < h.num_nets(); ++e)
    if (h.net_weight(e) != 1.0) weighted = true;
  out << h.num_nets() << ' ' << h.num_nodes();
  if (weighted) out << " 1";
  out << '\n';
  for (NetId e = 0; e < h.num_nets(); ++e) {
    if (weighted) out << h.net_weight(e) << ' ';
    const auto& pins = h.net(e);
    for (std::size_t i = 0; i < pins.size(); ++i)
      out << (pins[i] + 1) << (i + 1 == pins.size() ? '\n' : ' ');
    if (pins.empty()) out << '\n';
  }
}

Hypergraph read_netd(std::istream& in) {
  const std::string text = read_all(in);
  ContentLines lines(text);
  std::string_view line;
  // Header: five integer lines (legacy fields: an unused 0, #pins, #nets,
  // #modules, pad offset). Only #pins/#nets/#modules are used, for
  // cross-checking the pin list.
  std::size_t header[5] = {0, 0, 0, 0, 0};
  for (auto& field : header) {
    SP_CHECK_INPUT(lines.next(line), ".netD: truncated header");
    field = parse_size(next_token(line), ".netD header");
  }
  const std::size_t declared_pins = header[1];
  const std::size_t declared_nets = header[2];

  std::map<std::string, NodeId, std::less<>> ids;
  std::vector<std::string> names;
  auto intern = [&](std::string_view name) -> NodeId {
    auto it = ids.find(name);
    if (it == ids.end()) {
      it = ids.emplace(std::string(name), static_cast<NodeId>(names.size()))
               .first;
      names.emplace_back(name);
    }
    return it->second;
  };

  std::vector<std::size_t> offsets;
  std::vector<NodeId> pins;
  while (lines.next(line)) {
    const std::string_view module = next_token(line);
    const std::string_view kind = next_token(line);
    SP_CHECK_INPUT(!kind.empty(),
                   ".netD: pin line needs '<module> <s|l> [dir]'");
    const NodeId v = intern(module);
    SP_CHECK_INPUT(kind == "s" || kind == "l",
                   ".netD: pin kind must be 's' or 'l', got '" +
                       std::string(kind) + "'");
    if (kind == "s") offsets.push_back(pins.size());
    SP_CHECK_INPUT(!offsets.empty(),
                   ".netD: pin list must start with an 's' pin");
    pins.push_back(v);
  }
  const std::size_t num_nets = offsets.size();
  offsets.push_back(pins.size());
  SP_CHECK_INPUT(declared_pins == 0 || pins.size() == declared_pins,
                 ".netD: pin count does not match header");
  SP_CHECK_INPUT(declared_nets == 0 || num_nets == declared_nets,
                 ".netD: net count does not match header");
  Hypergraph h =
      Hypergraph::from_csr(names.size(), std::move(offsets), std::move(pins));
  h.set_node_names(std::move(names));
  return h;
}

Hypergraph read_netd_file(const std::string& path) {
  std::ifstream in(path);
  SP_CHECK_INPUT(in.good(), "cannot open .netD file: " + path);
  return read_netd(in);
}

void write_netd(const Hypergraph& h, std::ostream& out) {
  out << 0 << '\n'
      << h.num_pins() << '\n'
      << h.num_nets() << '\n'
      << h.num_nodes() << '\n'
      << 0 << '\n';
  const auto& names = h.node_names();
  auto name_of = [&](NodeId v) -> std::string {
    if (!names.empty()) return names[v];
    std::string name("a");
    name += std::to_string(v);
    return name;
  };
  for (NetId e = 0; e < h.num_nets(); ++e) {
    const auto& pins = h.net(e);
    SP_REQUIRE(!pins.empty(), ".netD writer: empty net");
    for (std::size_t i = 0; i < pins.size(); ++i)
      out << name_of(pins[i]) << (i == 0 ? " s I" : " l O") << '\n';
  }
}

void write_partition(const std::vector<std::uint32_t>& assignment,
                     std::ostream& out) {
  for (std::uint32_t c : assignment) out << c << '\n';
}

void write_partition_file(const std::vector<std::uint32_t>& assignment,
                          const std::string& path) {
  std::ofstream out(path);
  SP_CHECK_INPUT(out.good(), "cannot open output file: " + path);
  write_partition(assignment, out);
}

}  // namespace specpart::graph
