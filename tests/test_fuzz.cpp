// Deterministic mutation fuzzers for the decoders that read untrusted
// bytes: the wire decoder (and with it the .hgr decoder), the .netD reader
// and the basis-file reader of the persistent store.
//
// No external engine: a fixed-seed Rng applies a few random mutations to a
// seed input per iteration, for a fixed iteration count sized to run in
// seconds under ASan/UBSan. The property: a decoder returns a valid result
// (or nullopt, where that is its contract) or throws specpart::Error —
// never another exception, a crash, a hang or a sanitizer report — and
// sizes nothing from a declared count that the input's bytes do not back.
//
// Wire seeds are data/sample.hgr wrapped in a REQUEST frame plus
// write_request frames of small generated netlists, weighted ones
// included. Digit runs are replaced by 0, 1 or values above the decoder's
// 2^30 count cap, not by large in-range counts: a header may still declare
// up to 2^30 vertices, each of which costs offset memory
// (docs/ROBUSTNESS.md). .netD seeds are write_netd texts of generated
// netlists; basis seeds are files write_basis_file wrote for a small solve.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/laplacian.h"
#include "graph/netlist_io.h"
#include "model/clique_models.h"
#include "service/protocol.h"
#include "spectral/embedding.h"
#include "storage/basis_store.h"
#include "util/error.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/stringutil.h"

namespace specpart {
namespace {

constexpr std::uint64_t kSeed = 0xF022;
constexpr int kIterations = 20000;
constexpr int kNetdIterations = 3000;
constexpr int kBasisIterations = 3000;

graph::Hypergraph generated_netlist(std::size_t n) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = n + n / 10;
  cfg.seed = n;
  return graph::generate_netlist(cfg);
}

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
    const graph::Hypergraph h = generated_netlist(n);
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

TEST(Fuzz, ReadNetdReturnsValidNetlistsOrThrowsError) {
  std::vector<std::string> seeds;
  for (const std::size_t n : {4u, 16u, 60u}) {
    std::ostringstream out;
    graph::write_netd(generated_netlist(n), out);
    seeds.push_back(out.str());
  }
  Rng rng(kSeed + 1);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < kNetdIterations; ++iter) {
    std::string input = seeds[rng.next_below(seeds.size())];
    const std::size_t mutations = 1 + rng.next_below(3);
    for (std::size_t m = 0; m < mutations; ++m) mutate(input, rng);
    std::istringstream in(input);
    try {
      const graph::Hypergraph h = graph::read_netd(in);
      expect_csr_invariants(h);
      ASSERT_EQ(h.node_names().size(), h.num_nodes());
      if (HasFatalFailure()) {
        ADD_FAILURE() << "iteration " << iter << " input:\n" << input;
        return;
      }
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " threw a non-specpart exception ("
             << e.what() << ") on input:\n"
             << input;
    }
  }
  EXPECT_GT(accepted, std::size_t{kNetdIterations / 20});
  EXPECT_GT(rejected, std::size_t{kNetdIterations / 4});
}

/// Unique temporary directory, removed with its contents at scope exit.
class TempDir {
 public:
  TempDir()
      : path_((std::filesystem::temp_directory_path() /
               ("specpart_fuzz_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A file write_basis_file wrote for a small solve: 6 columns of a
/// 24-module netlist in 4-column chunks, with the header's objective zone
/// empty (the default) or filled.
std::string basis_seed(const std::string& path, std::string_view objective) {
  const linalg::SymCsrMatrix q = graph::build_laplacian(model::clique_expand(
      generated_netlist(24), model::NetModel::kPartitioningSpecific));
  spectral::EmbeddingOptions opts;
  opts.count = 6;
  Hasher key;
  key.mix_string("fuzz.basis");
  storage::write_basis_file(path, key.digest(),
                            spectral::compute_eigenbasis(q, opts), "scalar",
                            "multilevel", objective);
  return read_bytes(path);
}

/// Overwrites one 8-byte header word with a boundary value of the size
/// fields: zero and one, the 2^32 and 2^40 guards and their neighbours,
/// and values whose sums or products wrap.
void overwrite_header_word(std::string& s, Rng& rng) {
  static constexpr std::uint64_t kWords[] = {
      0, 1, 2, 5, 6, 7, 8, 24, 1ull << 24, 1ull << 32, (1ull << 32) + 1,
      1ull << 40, (1ull << 40) + 1, 1ull << 61, ~0ull - 1, ~0ull};
  const std::size_t at = 8 * rng.next_below(storage::kHeaderBytes / 8);
  if (at + 8 > s.size()) return;
  const std::uint64_t word = kWords[rng.next_below(std::size(kWords))];
  std::memcpy(s.data() + at, &word, 8);
}

/// Recomputes the header checksum over the mutated bytes, so that
/// read_basis_header gets past it to the field checks. The checksum covers
/// bytes [0, 120) (magic through values checksum) and is stored at 120.
void reseal_header(std::string& s) {
  constexpr std::size_t kChecked = 120;
  if (s.size() < kChecked + 8) return;
  const std::uint64_t sum = storage::checksum64(s.data(), kChecked);
  std::memcpy(s.data() + kChecked, &sum, 8);
}

TEST(Fuzz, BasisFileReadsReturnVerifiedBasesOrRejectTheFile) {
  const TempDir dir;
  const std::vector<std::string> seeds = {
      basis_seed(dir.file("seed0.eb"), ""),
      basis_seed(dir.file("seed1.eb"), "normalized")};
  const std::string path = dir.file("mutant.eb");
  Rng rng(kSeed + 2);
  std::size_t headers = 0;
  std::size_t bases = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < kBasisIterations; ++iter) {
    std::string bytes = seeds[rng.next_below(seeds.size())];
    const std::size_t mutations = 1 + rng.next_below(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      if (rng.next_below(2) == 0)
        mutate(bytes, rng);
      else
        overwrite_header_word(bytes, rng);
    }
    if (iter % 2 == 0) reseal_header(bytes);
    write_bytes(path, bytes);
    const std::optional<storage::BasisHeader> hdr =
        storage::read_basis_header(path);
    if (!hdr) {
      ++rejected;
      continue;
    }
    ++headers;
    // An accepted header declares only what the file's bytes hold, and its
    // chunks cover every stored column.
    ASSERT_EQ(bytes.size(),
              storage::basis_file_size(hdr->n, hdr->d, hdr->chunk_cols))
        << "iteration " << iter;
    ASSERT_LE(hdr->d, bytes.size() / 8) << "iteration " << iter;
    ASSERT_LE(hdr->n, bytes.size() / 8 / hdr->d) << "iteration " << iter;
    ASSERT_GE(storage::num_chunks(hdr->d, hdr->chunk_cols) * hdr->chunk_cols,
              hdr->d)
        << "iteration " << iter;
    try {
      const spectral::EigenBasis b = storage::read_basis_file(path).value();
      ASSERT_EQ(b.n, hdr->n);
      ASSERT_EQ(b.dimension(), hdr->d);
      ASSERT_EQ(b.vectors.rows(), hdr->n);
      ASSERT_EQ(b.vectors.cols(), hdr->d);
      ++bases;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " threw a non-specpart exception ("
             << e.what() << ")";
    }
  }
  // Re-sealed headers reach the field and size checks, and some mutants
  // (payload bytes, the unchecked reserved word) still read back clean.
  EXPECT_GT(headers, std::size_t{kBasisIterations / 50});
  EXPECT_GT(bases, std::size_t{0});
  EXPECT_GT(rejected, std::size_t{kBasisIterations / 2});
}

}  // namespace
}  // namespace specpart
