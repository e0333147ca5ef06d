// Deterministic mutation fuzzer for the wire decoder.
//
// No external engine: a fixed-seed Rng applies a few random mutations to a
// seed frame per iteration, for a fixed iteration count sized to run in
// seconds under ASan/UBSan. The property: read_request either returns
// requests whose hypergraphs meet the CSR invariants, or throws
// specpart::Error — never another exception, a crash or a sanitizer report.
//
// Seeds are data/sample.hgr wrapped in a REQUEST frame plus write_request
// frames of small generated netlists, weighted ones included. Digit runs
// are replaced by 0, 1 or values above the decoder's 2^30 count cap, not by
// large in-range counts: a header may still declare up to 2^30 vertices,
// each of which costs offset memory (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/netlist_io.h"
#include "service/protocol.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stringutil.h"

namespace specpart {
namespace {

constexpr std::uint64_t kSeed = 0xF022;
constexpr int kIterations = 20000;

std::string frame_of(const graph::Hypergraph& h, std::uint32_t k) {
  service::PartitionRequest req;
  req.id = strprintf("f%zu", h.num_nodes());
  req.k = k;
  req.graph = h;
  std::ostringstream out;
  service::write_request(req, out);
  return out.str();
}

std::vector<std::string> seed_frames() {
  std::vector<std::string> seeds;
  std::ifstream in(SPECPART_DATA_DIR "/sample.hgr");
  EXPECT_TRUE(in.good());
  seeds.push_back(frame_of(graph::read_hgr(in), 2));
  Rng rng(kSeed);
  for (const std::size_t n : {4u, 16u, 60u}) {
    graph::GeneratorConfig cfg;
    cfg.num_modules = n;
    cfg.num_nets = n + n / 10;
    cfg.seed = n;
    const graph::Hypergraph h = graph::generate_netlist(cfg);
    seeds.push_back(frame_of(h, 2));
    std::vector<std::vector<graph::NodeId>> nets;
    std::vector<double> weights;
    for (graph::NetId e = 0; e < h.num_nets(); ++e) {
      nets.emplace_back(h.net(e).begin(), h.net(e).end());
      weights.push_back(e % 3 == 0 ? 1.0 : 0.5 + rng.next_double());
    }
    seeds.push_back(frame_of(graph::Hypergraph(n, nets, weights), 4));
  }
  return seeds;
}

/// [begin, end) of the line holding byte `at`, end past its '\n'.
std::pair<std::size_t, std::size_t> line_around(const std::string& s,
                                                std::size_t at) {
  const std::size_t nl = s.rfind('\n', at == 0 ? 0 : at - 1);
  const std::size_t begin =
      at == 0 || nl == std::string::npos ? 0 : nl + 1;
  const std::size_t next = s.find('\n', at);
  return {begin, next == std::string::npos ? s.size() : next + 1};
}

void mutate(std::string& s, Rng& rng) {
  if (s.empty()) {
    s.push_back(static_cast<char>(rng.next_below(256)));
    return;
  }
  const std::size_t at = rng.next_below(s.size());
  switch (rng.next_below(7)) {
    case 0:  // flip one bit
      s[at] = static_cast<char>(s[at] ^ (1 << rng.next_below(8)));
      break;
    case 1:  // insert a byte
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
               static_cast<char>(rng.next_below(256)));
      break;
    case 2:  // delete a byte
      s.erase(at, 1);
      break;
    case 3:  // truncate
      s.resize(at);
      break;
    case 4: {  // duplicate a line
      const auto [begin, end] = line_around(s, at);
      s.insert(begin, s.substr(begin, end - begin));
      break;
    }
    case 5: {  // drop a line
      const auto [begin, end] = line_around(s, at);
      s.erase(begin, end - begin);
      break;
    }
    default: {  // replace the digit run at or after `at`
      std::size_t begin = at;
      while (begin < s.size() &&
             !std::isdigit(static_cast<unsigned char>(s[begin])))
        ++begin;
      if (begin == s.size()) break;
      std::size_t end = begin;
      while (end < s.size() && std::isdigit(static_cast<unsigned char>(s[end])))
        ++end;
      static const char* const kValues[] = {"0", "1", "1073741825",
                                            "99999999999999999999999"};
      s.replace(begin, end - begin, kValues[rng.next_below(4)]);
      break;
    }
  }
}

/// Monotone offsets, sorted unique in-range pins, and an incidence that is
/// the transpose of the pin lists.
void expect_csr_invariants(const graph::Hypergraph& h) {
  std::size_t pins = 0;
  for (graph::NetId e = 0; e < h.num_nets(); ++e) {
    const auto net = h.net(e);
    pins += net.size();
    for (std::size_t i = 0; i < net.size(); ++i) {
      ASSERT_LT(net[i], h.num_nodes());
      if (i > 0) {
        ASSERT_LT(net[i - 1], net[i]);
      }
    }
  }
  ASSERT_EQ(pins, h.num_pins());
  std::size_t incidences = 0;
  for (graph::NodeId v = 0; v < h.num_nodes(); ++v) {
    const auto nets = h.nets_of(v);
    ASSERT_EQ(nets.size(), h.node_degree(v));
    incidences += nets.size();
    for (std::size_t i = 0; i < nets.size(); ++i) {
      ASSERT_LT(nets[i], h.num_nets());
      if (i > 0) {
        ASSERT_LT(nets[i - 1], nets[i]);
      }
      ASSERT_TRUE(std::ranges::binary_search(h.net(nets[i]), v));
    }
  }
  ASSERT_EQ(incidences, pins);
}

TEST(Fuzz, ReadRequestReturnsValidRequestsOrThrowsError) {
  const std::vector<std::string> seeds = seed_frames();
  Rng rng(kSeed);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string input = seeds[rng.next_below(seeds.size())];
    const std::size_t mutations = 1 + rng.next_below(3);
    for (std::size_t m = 0; m < mutations; ++m) mutate(input, rng);
    std::istringstream in(input);
    try {
      while (const auto req = service::read_request(in)) {
        expect_csr_invariants(req->graph);
        if (HasFatalFailure()) {
          ADD_FAILURE() << "iteration " << iter << " input:\n" << input;
          return;
        }
        ++accepted;
      }
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " threw a non-specpart exception ("
             << e.what() << ") on input:\n"
             << input;
    }
  }
  // Both outcomes must be reached, or the mutations are too weak or too
  // strong to exercise the decoder.
  EXPECT_GT(accepted, std::size_t{kIterations / 50});
  EXPECT_GT(rejected, std::size_t{kIterations / 2});
}

}  // namespace
}  // namespace specpart
