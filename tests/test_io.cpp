// Tests for netlist file I/O (.hgr and .netD parsers, partition writer).
//
// The second half checks the one-pass CSR decoder and the CSR Hypergraph
// against test-local copies of the code they replaced: the istream decoder
// built on split_ws and the vector-of-vectors hypergraph.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <map>
#include <sstream>

#include "graph/generator.h"
#include "graph/netlist_io.h"
#include "service/protocol.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stringutil.h"

namespace specpart::graph {
namespace {

TEST(Hgr, ParsesPlainFormat) {
  std::istringstream in("3 4\n1 2\n2 3 4\n1 4\n");
  const Hypergraph h = read_hgr(in);
  EXPECT_EQ(h.num_nets(), 3u);
  EXPECT_EQ(h.num_nodes(), 4u);
  EXPECT_EQ(h.net(1).size(), 3u);
  EXPECT_EQ(h.net(0)[0], 0u);  // 1-based in file -> 0-based in memory
}

TEST(Hgr, SkipsCommentsAndBlanks) {
  std::istringstream in("% comment\n\n2 3\n% another\n1 2\n\n2 3\n");
  const Hypergraph h = read_hgr(in);
  EXPECT_EQ(h.num_nets(), 2u);
}

TEST(Hgr, NetWeights) {
  std::istringstream in("2 3 1\n5.0 1 2\n0.5 2 3\n");
  const Hypergraph h = read_hgr(in);
  EXPECT_DOUBLE_EQ(h.net_weight(0), 5.0);
  EXPECT_DOUBLE_EQ(h.net_weight(1), 0.5);
}

TEST(Hgr, VertexWeightLinesConsumed) {
  std::istringstream in("1 2 10\n1 2\n3\n4\n");
  const Hypergraph h = read_hgr(in);
  EXPECT_EQ(h.num_nets(), 1u);
  EXPECT_EQ(h.num_nodes(), 2u);
}

TEST(Hgr, RejectsMalformedHeader) {
  std::istringstream in("3\n");
  EXPECT_THROW(read_hgr(in), Error);
}

TEST(Hgr, RejectsBadFmt) {
  std::istringstream in("1 2 7\n1 2\n");
  EXPECT_THROW(read_hgr(in), Error);
}

TEST(Hgr, RejectsOutOfRangePin) {
  std::istringstream in("1 2\n1 3\n");
  EXPECT_THROW(read_hgr(in), Error);
}

TEST(Hgr, RejectsZeroPin) {
  std::istringstream in("1 2\n0 1\n");
  EXPECT_THROW(read_hgr(in), Error);
}

TEST(Hgr, RejectsTruncatedFile) {
  std::istringstream in("2 3\n1 2\n");
  EXPECT_THROW(read_hgr(in), Error);
}

TEST(Hgr, RejectsIntegerOverflowInHeader) {
  // 2^64-scale counts must be caught during parsing, not wrap around.
  std::istringstream in("99999999999999999999999 2\n1 2\n");
  try {
    read_hgr(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos);
  }
}

TEST(Hgr, RejectsAllocationScaleHeader) {
  // Parseable but absurd counts must not drive a pre-allocation.
  std::istringstream in("4611686018427387904 2\n1 2\n");
  try {
    read_hgr(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("implausibly large"),
              std::string::npos);
  }
}

TEST(Hgr, RejectsTrailingGarbage) {
  std::istringstream in("1 2\n1 2\n1 2\n");
  try {
    read_hgr(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing garbage"),
              std::string::npos);
  }
}

TEST(Hgr, TrailingCommentsAndBlanksAreNotGarbage) {
  std::istringstream in("1 2\n1 2\n% trailing comment\n\n");
  const Hypergraph h = read_hgr(in);
  EXPECT_EQ(h.num_nets(), 1u);
}

TEST(Hgr, DuplicatePinsMergedAndReported) {
  std::istringstream in("2 3\n1 1 2\n2 3\n");
  Diagnostics diag;
  const Hypergraph h = read_hgr(in, &diag);
  EXPECT_EQ(h.net(0).size(), 2u);  // duplicate merged, parse still succeeds
  ASSERT_EQ(diag.events().size(), 1u);
  EXPECT_NE(diag.events()[0].message.find("duplicate"), std::string::npos);
  EXPECT_EQ(diag.status(), StatusCode::kOk);  // a warning, not a fallback
}

TEST(Hgr, RoundTrip) {
  Hypergraph h(4, {{0, 1, 2}, {2, 3}}, {1.0, 1.0});
  std::ostringstream out;
  write_hgr(h, out);
  std::istringstream in(out.str());
  const Hypergraph back = read_hgr(in);
  EXPECT_EQ(back.num_nodes(), h.num_nodes());
  EXPECT_EQ(back.num_nets(), h.num_nets());
  for (NetId e = 0; e < h.num_nets(); ++e)
    EXPECT_TRUE(std::ranges::equal(back.net(e), h.net(e))) << "net " << e;
}

TEST(Hgr, RoundTripWeighted) {
  Hypergraph h(3, {{0, 1}, {1, 2}}, {2.0, 1.0});
  std::ostringstream out;
  write_hgr(h, out);
  std::istringstream in(out.str());
  const Hypergraph back = read_hgr(in);
  EXPECT_DOUBLE_EQ(back.net_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(back.net_weight(1), 1.0);
}

/// parse(write(parse(text))) == parse(text) for a messy textual input:
/// comments, blank lines, net weights, and non-canonical spacing must all
/// wash out through one write/read cycle.
TEST(Hgr, ParseWriteParseEqualsDirectParse) {
  const std::string messy =
      "% comment before the header\n"
      "\n"
      "  3 5 1\n"
      "% weighted nets below\n"
      "2   1 2\n"
      "\n"
      "1 2 3   4\n"
      "3\t5 1\n"
      "% trailing comment\n";
  std::istringstream in1(messy);
  const Hypergraph direct = read_hgr(in1);

  std::ostringstream out;
  write_hgr(direct, out);
  std::istringstream in2(out.str());
  const Hypergraph cycled = read_hgr(in2);

  ASSERT_EQ(cycled.num_nodes(), direct.num_nodes());
  ASSERT_EQ(cycled.num_nets(), direct.num_nets());
  for (NetId e = 0; e < direct.num_nets(); ++e) {
    EXPECT_TRUE(std::ranges::equal(cycled.net(e), direct.net(e))) << e;
    EXPECT_DOUBLE_EQ(cycled.net_weight(e), direct.net_weight(e));
  }
  EXPECT_EQ(cycled.num_pins(), direct.num_pins());
}

/// The writer is canonical: writing, re-parsing and writing again emits
/// byte-identical text. This is what lets the service's wire protocol
/// embed .hgr payloads and still promise byte-stable request frames.
TEST(Hgr, WriterIsCanonicalFixedPoint) {
  const Hypergraph h(6, {{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}},
                     {1.0, 2.5, 1.0, 0.5});
  std::ostringstream first;
  write_hgr(h, first);
  std::istringstream in(first.str());
  const Hypergraph back = read_hgr(in);
  std::ostringstream second;
  write_hgr(back, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(NetD, ParsesPinList) {
  // Header: 0, #pins=6, #nets=2, #modules=4, pad offset 0.
  std::istringstream in(
      "0\n6\n2\n4\n0\n"
      "a0 s I\n"
      "a1 l O\n"
      "p0 l B\n"
      "a2 s I\n"
      "a1 l O\n"
      "p1 l B\n");
  const Hypergraph h = read_netd(in);
  EXPECT_EQ(h.num_nets(), 2u);
  EXPECT_EQ(h.num_nodes(), 5u);  // a0, a1, p0, a2, p1
  EXPECT_EQ(h.net(0).size(), 3u);
  EXPECT_EQ(h.node_names()[0], "a0");
  EXPECT_EQ(h.node_names()[3], "a2");
}

TEST(NetD, SharedModuleJoinsNets) {
  std::istringstream in(
      "0\n4\n2\n3\n0\n"
      "a0 s I\na1 l O\n"
      "a1 s I\na2 l O\n");
  const Hypergraph h = read_netd(in);
  EXPECT_TRUE(h.connected());
  EXPECT_EQ(h.node_degree(1), 2u);  // a1 is in both nets
}

TEST(NetD, RejectsPinCountMismatch) {
  std::istringstream in("0\n5\n1\n2\n0\na0 s I\na1 l O\n");
  EXPECT_THROW(read_netd(in), Error);
}

TEST(NetD, RejectsLeadingContinuation) {
  std::istringstream in("0\n1\n1\n1\n0\na0 l I\n");
  EXPECT_THROW(read_netd(in), Error);
}

TEST(NetD, RejectsBadPinKind) {
  std::istringstream in("0\n1\n1\n1\n0\na0 x I\n");
  EXPECT_THROW(read_netd(in), Error);
}

TEST(NetD, RoundTrip) {
  Hypergraph h(5, {{0, 1, 2}, {2, 3}, {3, 4}});
  h.set_node_names({"u0", "u1", "u2", "u3", "u4"});
  std::ostringstream out;
  write_netd(h, out);
  std::istringstream in(out.str());
  const Hypergraph back = read_netd(in);
  ASSERT_EQ(back.num_nodes(), h.num_nodes());
  ASSERT_EQ(back.num_nets(), h.num_nets());
  for (NetId e = 0; e < h.num_nets(); ++e)
    EXPECT_TRUE(std::ranges::equal(back.net(e), h.net(e))) << "net " << e;
  EXPECT_EQ(back.node_names()[3], "u3");
}

TEST(NetD, RoundTripUnnamed) {
  Hypergraph h(3, {{0, 1}, {1, 2}});
  std::ostringstream out;
  write_netd(h, out);
  std::istringstream in(out.str());
  const Hypergraph back = read_netd(in);
  EXPECT_EQ(back.num_pins(), h.num_pins());
  EXPECT_EQ(back.node_names()[0], "a0");
}

TEST(PartitionIo, WritesOnePerLine) {
  std::ostringstream out;
  write_partition({0, 1, 1, 0, 2}, out);
  EXPECT_EQ(out.str(), "0\n1\n1\n0\n2\n");
}

TEST(Files, MissingFileThrows) {
  EXPECT_THROW(read_hgr_file("/nonexistent/x.hgr"), Error);
  EXPECT_THROW(read_netd_file("/nonexistent/x.netD"), Error);
}

// --- Allocation bound -------------------------------------------------------

/// Peak resident set of this process, in MB (Linux reports ru_maxrss in KB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

TEST(Hgr, DeclaredNetCountSizesNothingBeforeItsLinesArrive) {
  // 10^8 declared nets used to pre-size ~3 GB of net and weight tables.
  const double before = peak_rss_mb();
  try {
    read_hgr(std::string_view("100000000 2\n1 2\n"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fewer net lines"),
              std::string::npos);
  }
  EXPECT_LT(peak_rss_mb() - before, 64.0);
}

TEST(Hgr, FiftyOneByteFrameDeclaringHugeNetCountIsBadRequest) {
  const std::string frame =
      "REQUEST id=x k=2 graph_lines=2\n100000000 2\n1 2\nEND\n";
  ASSERT_EQ(frame.size(), 51u);
  const double before = peak_rss_mb();
  std::istringstream in(frame);
  try {
    service::read_request(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("bad_request:", 0), 0u) << e.what();
  }
  EXPECT_LT(peak_rss_mb() - before, 64.0);
}

// --- Differential tests against the replaced code ---------------------------

/// The vector-of-vectors hypergraph the CSR layout replaced.
struct RefHypergraph {
  std::size_t num_nodes = 0;
  std::vector<std::vector<NodeId>> nets;
  std::vector<double> weights;
  std::vector<std::vector<NetId>> node_nets;
  std::size_t num_pins = 0;
  std::vector<std::string> names;

  RefHypergraph(std::size_t n, std::vector<std::vector<NodeId>> nets_in,
                std::vector<double> weights_in = {})
      : num_nodes(n), nets(std::move(nets_in)), weights(std::move(weights_in)) {
    if (weights.empty()) weights.assign(nets.size(), 1.0);
    node_nets.resize(n);
    for (NetId e = 0; e < nets.size(); ++e) {
      auto& pins = nets[e];
      std::sort(pins.begin(), pins.end());
      pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
      num_pins += pins.size();
      for (NodeId v : pins) node_nets[v].push_back(e);
    }
  }
};

RefHypergraph ref_induced(const RefHypergraph& h,
                          const std::vector<NodeId>& nodes, bool strict) {
  std::vector<std::uint32_t> remap(h.num_nodes, UINT32_MAX);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    remap[nodes[i]] = static_cast<std::uint32_t>(i);
  std::vector<std::vector<NodeId>> sub_nets;
  std::vector<double> sub_weights;
  std::vector<NodeId> fragment;
  for (NetId e = 0; e < h.nets.size(); ++e) {
    fragment.clear();
    bool complete = true;
    for (NodeId v : h.nets[e]) {
      if (remap[v] != UINT32_MAX)
        fragment.push_back(remap[v]);
      else
        complete = false;
    }
    if (strict && !complete) continue;
    if (fragment.size() >= 2) {
      sub_nets.push_back(fragment);
      sub_weights.push_back(h.weights[e]);
    }
  }
  return RefHypergraph(nodes.size(), std::move(sub_nets),
                       std::move(sub_weights));
}

bool ref_next_content_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '%' || t.front() == '#') continue;
    line = std::string(t);
    return true;
  }
  return false;
}

/// The istream decoder the one-pass decoder replaced; returns the number of
/// nets with duplicate pins through `nets_with_duplicates`.
RefHypergraph ref_read_hgr(std::istream& in,
                           std::size_t* nets_with_duplicates) {
  constexpr std::size_t kMaxDeclaredCount = std::size_t{1} << 30;
  std::string line;
  SP_CHECK_INPUT(ref_next_content_line(in, line), ".hgr: missing header line");
  const auto header = split_ws(line);
  SP_CHECK_INPUT(header.size() >= 2 && header.size() <= 3,
                 ".hgr: header must be '<#nets> <#vertices> [fmt]'");
  const std::size_t num_nets = parse_size(header[0], ".hgr #nets");
  const std::size_t num_nodes = parse_size(header[1], ".hgr #vertices");
  SP_CHECK_INPUT(num_nets <= kMaxDeclaredCount,
                 ".hgr: declared net count is implausibly large");
  SP_CHECK_INPUT(num_nodes <= kMaxDeclaredCount,
                 ".hgr: declared vertex count is implausibly large");
  std::size_t fmt = header.size() == 3 ? parse_size(header[2], ".hgr fmt") : 0;
  SP_CHECK_INPUT(fmt == 0 || fmt == 1 || fmt == 10 || fmt == 11,
                 ".hgr: fmt must be one of 0, 1, 10, 11");
  const bool has_net_weights = fmt == 1 || fmt == 11;
  const bool has_node_weights = fmt == 10 || fmt == 11;

  std::vector<std::vector<NodeId>> nets(num_nets);
  std::vector<double> weights(num_nets, 1.0);
  *nets_with_duplicates = 0;
  std::vector<char> pin_seen(num_nodes, 0);
  for (std::size_t e = 0; e < num_nets; ++e) {
    SP_CHECK_INPUT(ref_next_content_line(in, line),
                   ".hgr: fewer net lines than the header promises");
    const auto tokens = split_ws(line);
    std::size_t first_pin = 0;
    if (has_net_weights) {
      SP_CHECK_INPUT(!tokens.empty(), ".hgr: weighted net line is empty");
      weights[e] = parse_double(tokens[0], ".hgr net weight");
      first_pin = 1;
    }
    SP_CHECK_INPUT(tokens.size() > first_pin, ".hgr: net with no pins");
    bool duplicate = false;
    for (std::size_t i = first_pin; i < tokens.size(); ++i) {
      const std::size_t v = parse_size(tokens[i], ".hgr pin");
      SP_CHECK_INPUT(v >= 1 && v <= num_nodes,
                     ".hgr: pin id out of range (ids are 1-based)");
      duplicate = duplicate || pin_seen[v - 1] != 0;
      pin_seen[v - 1] = 1;
      nets[e].push_back(static_cast<NodeId>(v - 1));
    }
    for (NodeId v : nets[e]) pin_seen[v] = 0;
    *nets_with_duplicates += duplicate ? 1 : 0;
  }
  if (has_node_weights) {
    for (std::size_t v = 0; v < num_nodes; ++v)
      SP_CHECK_INPUT(ref_next_content_line(in, line),
                     ".hgr: missing vertex weight lines");
  }
  SP_CHECK_INPUT(!ref_next_content_line(in, line),
                 ".hgr: trailing garbage after the declared net count");
  return RefHypergraph(num_nodes, std::move(nets), std::move(weights));
}

RefHypergraph ref_read_netd(std::istream& in) {
  std::string line;
  std::size_t header[5] = {0, 0, 0, 0, 0};
  for (auto& field : header) {
    SP_CHECK_INPUT(ref_next_content_line(in, line), ".netD: truncated header");
    field = parse_size(split_ws(line).at(0), ".netD header");
  }
  const std::size_t declared_pins = header[1];
  const std::size_t declared_nets = header[2];
  std::map<std::string, NodeId> ids;
  std::vector<std::string> names;
  auto intern = [&](const std::string& name) -> NodeId {
    auto [it, inserted] =
        ids.try_emplace(name, static_cast<NodeId>(names.size()));
    if (inserted) names.push_back(name);
    return it->second;
  };
  std::vector<std::vector<NodeId>> nets;
  std::size_t pins_seen = 0;
  while (ref_next_content_line(in, line)) {
    const auto tokens = split_ws(line);
    SP_CHECK_INPUT(tokens.size() >= 2,
                   ".netD: pin line needs '<module> <s|l> [dir]'");
    const NodeId v = intern(tokens[0]);
    const std::string& kind = tokens[1];
    SP_CHECK_INPUT(kind == "s" || kind == "l",
                   ".netD: pin kind must be 's' or 'l', got '" + kind + "'");
    if (kind == "s") nets.emplace_back();
    SP_CHECK_INPUT(!nets.empty(), ".netD: pin list must start with an 's' pin");
    nets.back().push_back(v);
    ++pins_seen;
  }
  SP_CHECK_INPUT(declared_pins == 0 || pins_seen == declared_pins,
                 ".netD: pin count does not match header");
  SP_CHECK_INPUT(declared_nets == 0 || nets.size() == declared_nets,
                 ".netD: net count does not match header");
  RefHypergraph h(names.size(), std::move(nets));
  h.names = std::move(names);
  return h;
}

/// The writer as it was, over the reference layout.
std::string ref_write_hgr(const RefHypergraph& h) {
  std::ostringstream out;
  bool weighted = false;
  for (NetId e = 0; e < h.nets.size(); ++e)
    if (h.weights[e] != 1.0) weighted = true;
  out << h.nets.size() << ' ' << h.num_nodes;
  if (weighted) out << " 1";
  out << '\n';
  for (NetId e = 0; e < h.nets.size(); ++e) {
    if (weighted) out << h.weights[e] << ' ';
    const auto& pins = h.nets[e];
    for (std::size_t i = 0; i < pins.size(); ++i)
      out << (pins[i] + 1) << (i + 1 == pins.size() ? '\n' : ' ');
    if (pins.empty()) out << '\n';
  }
  return out.str();
}

/// Same nets (pin sequences), weights (bits), incidence and pin count.
void expect_same(const Hypergraph& h, const RefHypergraph& r,
                 const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(h.num_nodes(), r.num_nodes);
  ASSERT_EQ(h.num_nets(), r.nets.size());
  EXPECT_EQ(h.num_pins(), r.num_pins);
  std::size_t max_size = 0;
  for (NetId e = 0; e < h.num_nets(); ++e) {
    ASSERT_TRUE(std::ranges::equal(h.net(e), r.nets[e])) << "net " << e;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(h.net_weight(e)),
              std::bit_cast<std::uint64_t>(r.weights[e]))
        << "net " << e;
    max_size = std::max(max_size, r.nets[e].size());
  }
  for (NodeId v = 0; v < h.num_nodes(); ++v) {
    ASSERT_TRUE(std::ranges::equal(h.nets_of(v), r.node_nets[v]))
        << "vertex " << v;
    ASSERT_EQ(h.node_degree(v), r.node_nets[v].size()) << "vertex " << v;
  }
  EXPECT_EQ(h.max_net_size(), max_size);
  EXPECT_EQ(h.node_names(), r.names);
}

/// Decodes `text` with both decoders: either both succeed with the same
/// hypergraph, duplicate report and writer bytes, or both throw Error with
/// the same message.
void expect_same_hgr_decode(const std::string& text,
                            const std::string& context) {
  std::optional<Hypergraph> got;
  std::string got_error;
  Diagnostics diag;
  try {
    got = read_hgr(std::string_view(text), &diag);
  } catch (const Error& e) {
    got_error = e.what();
  }
  std::optional<RefHypergraph> want;
  std::string want_error;
  std::size_t duplicates = 0;
  try {
    std::istringstream in(text);
    want = ref_read_hgr(in, &duplicates);
  } catch (const Error& e) {
    want_error = e.what();
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << context << ": change says '" << got_error << "', reference says '"
      << want_error << "'";
  if (!got) {
    EXPECT_EQ(got_error, want_error) << context;
    return;
  }
  expect_same(*got, *want, context);
  EXPECT_EQ(diag.events().size(), duplicates > 0 ? 1u : 0u) << context;
  std::ostringstream written;
  write_hgr(*got, written);
  EXPECT_EQ(written.str(), ref_write_hgr(*want)) << context;
  // The istream overload is the same parser.
  std::istringstream in(text);
  expect_same(read_hgr(in), *want, context + " (istream)");
}

void expect_same_netd_decode(const std::string& text,
                             const std::string& context) {
  std::optional<Hypergraph> got;
  std::string got_error;
  try {
    std::istringstream in(text);
    got = read_netd(in);
  } catch (const Error& e) {
    got_error = e.what();
  }
  std::optional<RefHypergraph> want;
  std::string want_error;
  try {
    std::istringstream in(text);
    want = ref_read_netd(in);
  } catch (const Error& e) {
    want_error = e.what();
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << context << ": change says '" << got_error << "', reference says '"
      << want_error << "'";
  if (got)
    expect_same(*got, *want, context);
  else
    EXPECT_EQ(got_error, want_error) << context;
}

Hypergraph generated(std::size_t n, std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = n + n / 10;
  cfg.seed = seed;
  return generate_netlist(cfg);
}

/// `h` with every net weight drawn at random (a third of them left at 1).
Hypergraph with_random_weights(const Hypergraph& h, Rng& rng) {
  std::vector<std::vector<NodeId>> nets;
  std::vector<double> weights;
  for (NetId e = 0; e < h.num_nets(); ++e) {
    nets.emplace_back(h.net(e).begin(), h.net(e).end());
    weights.push_back(rng.next_bool(1.0 / 3.0) ? 1.0
                                               : 0.25 + 4.0 * rng.next_double());
  }
  return Hypergraph(h.num_nodes(), nets, std::move(weights));
}

std::string hgr_text(const Hypergraph& h) {
  std::ostringstream out;
  write_hgr(h, out);
  return out.str();
}

TEST(HgrDifferential, GeneratedNetlistsMatchTheReplacedDecoder) {
  Rng rng(0xD1FF);
  for (const std::size_t n : {2u, 3u, 9u, 50u, 300u, 1000u, 5000u}) {
    const Hypergraph h = generated(n, n);
    expect_same_hgr_decode(hgr_text(h), "n=" + std::to_string(n));
    expect_same_hgr_decode(hgr_text(with_random_weights(h, rng)),
                           "weighted n=" + std::to_string(n));
  }
}

TEST(HgrDifferential, SampleNetlistMatchesTheReplacedDecoder) {
  std::ifstream in(SPECPART_DATA_DIR "/sample.hgr");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  expect_same_hgr_decode(text.str(), "data/sample.hgr");
}

TEST(HgrDifferential, HandWrittenCornerCasesMatchTheReplacedDecoder) {
  const std::vector<std::string> cases = {
      // Comments, blank lines, CRLF, tabs, \v and \f.
      "% c\n\n# c\n3 4\n1 2\n\n% mid\n2 3 4\n1 4\n% end\n\n",
      "3 4\r\n1 2\r\n2 3 4\r\n1 4\r\n",
      "\t3\t4\t\n\t1\t2\n2\v3\f4\n  1   4  \n",
      "2 3\n1\r2\n\v\f\n2 3\n",
      " % indented comment\n1 2\n1 2\n",
      "1 2\n1 2",  // no final newline
      // fmt 1, 10 and 11.
      "2 3 1\n2.5 1 2\n1e-3 2 3\n",
      "2 3 10\n1 2\n2 3\n5\n6\n7\n",
      "2 3 11\n2 1 2\n0.5 2 3\n1\n1\n1\n",
      "2 3 10\n1 2\n2 3\n5\n6\n",      // a vertex weight line short
      "1 2 1\nnan 1 2\n",              // parse_double accepts it
      "1 2 1\n1x 1 2\n",               // bad weight
      "1 2 1\n2.0\n",                  // weight but no pins
      // Duplicate pins, one-pin nets, isolated vertices.
      "2 3\n1 1 2\n2 3\n",
      "3 5\n1 1 1\n2 2\n4 5 4 5\n",
      "3 6\n1\n2\n6 1\n",
      "1 10\n3 7\n",
      "0 4\n",
      "0 0\n",
      // Truncated payloads and trailing garbage.
      "3 4\n1 2\n",
      "",
      "% only a comment\n",
      "1 2\n1 2\n1 2\n",
      "1 2 10\n1 2\n1\n1\n1\n",
      // Headers with 1 or 4 fields, bad tokens, overflowing counts.
      "3\n1 2\n",
      "1 2 0 0\n1 2\n",
      "1 2 7\n1 2\n",
      "x 2\n1 2\n",
      "1 2\n1 x\n",
      "1 2\n1 +2\n",
      "1 2\n1 -2\n",
      "1 2\n0 1\n",
      "1 2\n1 3\n",
      "1 2\n1 99999999999999999999999\n",
      "99999999999999999999999 2\n1 2\n",
      "2 99999999999999999999999\n1 2\n",
      "1 18446744073709551615\n1 2\n",
      "1 18446744073709551616\n1 2\n",
      "1073741825 2\n1 2\n",
      "1 1073741825\n1 2\n",
      "1 2 99999999999999999999999\n1 2\n",
  };
  for (std::size_t i = 0; i < cases.size(); ++i)
    expect_same_hgr_decode(cases[i], "case " + std::to_string(i));
}

TEST(HgrDifferential, EveryByteAsSeparatorMatchesTheReplacedDecoder) {
  // The scanner's whitespace set must be std::isspace's, byte for byte.
  for (int c = 0; c < 256; ++c) {
    std::string text = "2 3\n1 2\n2";
    text += static_cast<char>(c);
    text += "3\n";
    expect_same_hgr_decode(text, "byte " + std::to_string(c));
  }
}

/// Small random edits of valid texts; declared counts stay small enough for
/// the reference decoder to allocate.
TEST(HgrDifferential, MutatedTextsMatchTheReplacedDecoder) {
  Rng rng(0x5EED);
  std::vector<std::string> seeds = {
      hgr_text(generated(12, 1)),
      hgr_text(with_random_weights(generated(20, 2), rng)),
      "% c\n3 4 11\n2 1 2\n1 2 3 4\n3 1 4\n1\n2\n3\n4\n",
      "2 3 10\n1 2\n2 3\n5\n6\n7\n"};
  const std::string alphabet = "0123456789 \t\r\n%#.-x";
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text = seeds[rng.next_below(seeds.size())];
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < edits && !text.empty(); ++k) {
      const std::size_t at = rng.next_below(text.size());
      const char c = alphabet[rng.next_below(alphabet.size())];
      switch (rng.next_below(4)) {
        case 0: text[at] = c; break;
        case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c); break;
        case 2: text.erase(at, 1); break;
        default: text.resize(at); break;
      }
    }
    try {
      const HgrHeader header = read_hgr_header(text);
      if (header.num_nets > 100000 || header.num_nodes > 100000) continue;
    } catch (const Error&) {
    }
    expect_same_hgr_decode(text, "iteration " + std::to_string(iter));
    if (HasFatalFailure()) return;
  }
}

TEST(NetDDifferential, MatchesTheReplacedDecoder) {
  std::vector<std::string> cases = {
      "0\n6\n2\n4\n0\na0 s I\na1 l O\np0 l B\na2 s I\na1 l O\np1 l B\n",
      "% c\n0\r\n4\r\n2\r\n3\r\n0\r\na0\ts\tI\r\n\na1 l\n# c\na1 s\na2 l O\n",
      "0\n0\n0\n0\n0\na0 s\na0 l\na1 l\n",  // duplicate pin merged
      "0\n0\n0\n0\n0\n",                    // no pins at all
      "0\n5\n1\n2\n0\na0 s I\na1 l O\n",    // pin count mismatch
      "0\n2\n3\n2\n0\na0 s I\na1 l O\n",    // net count mismatch
      "0\n1\n1\n1\n0\na0 l I\n",            // leading continuation
      "0\n1\n1\n1\n0\na0 x I\n",            // bad pin kind
      "0\n1\n1\n1\n0\na0\n",                // no kind
      "0\n1\n1\n",                          // truncated header
      "0\nx\n1\n1\n0\na0 s\n",              // bad header field
      "0 9\n2 extra\n1\n2\n0\na0 s\na1 l\n",  // header lines use token 0
  };
  for (const std::size_t n : {3u, 40u, 700u}) {
    Hypergraph h = generated(n, n + 7);
    std::ostringstream unnamed;
    write_netd(h, unnamed);
    cases.push_back(unnamed.str());
    std::vector<std::string> names;
    for (std::size_t v = 0; v < n; ++v)
      names.push_back((v % 3 == 0 ? "p" : "cell_") + std::to_string(n - v));
    h.set_node_names(std::move(names));
    std::ostringstream named;
    write_netd(h, named);
    cases.push_back(named.str());
  }
  for (std::size_t i = 0; i < cases.size(); ++i)
    expect_same_netd_decode(cases[i], "case " + std::to_string(i));
}

TEST(HypergraphDifferential, InducedMatchesTheReplacedLayout) {
  Rng rng(0x1DC);
  for (const std::size_t n : {2u, 9u, 120u, 1500u}) {
    const Hypergraph h = with_random_weights(generated(n, 3 * n), rng);
    std::vector<std::vector<NodeId>> nets;
    std::vector<double> weights;
    for (NetId e = 0; e < h.num_nets(); ++e) {
      nets.emplace_back(h.net(e).begin(), h.net(e).end());
      weights.push_back(h.net_weight(e));
    }
    const RefHypergraph ref(n, nets, weights);
    expect_same(h, ref, "n=" + std::to_string(n));
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<NodeId> all(n);
      for (NodeId v = 0; v < n; ++v) all[v] = v;
      rng.shuffle(all);
      const std::size_t keep =
          trial == 0 ? 0 : trial == 1 ? n : rng.next_below(n + 1);
      const std::vector<NodeId> nodes(all.begin(),
                                      all.begin() + static_cast<std::ptrdiff_t>(keep));
      const std::string context =
          "n=" + std::to_string(n) + " keep=" + std::to_string(keep);
      expect_same(h.induced(nodes), ref_induced(ref, nodes, false),
                  context + " induced");
      expect_same(h.induced_strict(nodes), ref_induced(ref, nodes, true),
                  context + " strict");
    }
  }
}

}  // namespace
}  // namespace specpart::graph
