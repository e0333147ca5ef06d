#include "storage/basis_store.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "util/error.h"
#include "util/fault.h"
#include "util/stringutil.h"

namespace specpart::storage {

namespace {

/// RAII std::FILE handle.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void append_u64(std::vector<unsigned char>& buf, std::uint64_t v) {
  unsigned char b[8];
  std::memcpy(b, &v, 8);
  buf.insert(buf.end(), b, b + 8);
}

void append_u32(std::vector<unsigned char>& buf, std::uint32_t v) {
  unsigned char b[4];
  std::memcpy(b, &v, 4);
  buf.insert(buf.end(), b, b + 4);
}

void append_f64(std::vector<unsigned char>& buf, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  append_u64(buf, bits);
}

/// Zero-padded fixed-width token field. Tokens longer than the field
/// would decode truncated (an aliasing hazard), so they are a contract
/// violation — every solver/strategy token in the tree is < 24 chars.
void append_token(std::vector<unsigned char>& buf, std::string_view token) {
  SP_REQUIRE(token.size() < kTokenBytes,
             "storage: token '" + std::string(token) + "' exceeds the " +
                 std::to_string(kTokenBytes) + "-byte header field");
  buf.insert(buf.end(), token.begin(), token.end());
  buf.insert(buf.end(), kTokenBytes - token.size(), 0);
}

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

double load_f64(const unsigned char* p) {
  const std::uint64_t bits = load_u64(p);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string load_token(const unsigned char* p) {
  std::size_t len = 0;
  while (len < kTokenBytes && p[len] != 0) ++len;
  return std::string(reinterpret_cast<const char*>(p), len);
}

/// Columns covered by chunk `c` of a d-column basis: [begin, end).
void chunk_span(std::size_t c, std::size_t d, std::size_t chunk_cols,
                std::size_t& begin, std::size_t& end) {
  begin = c * chunk_cols;
  end = std::min(d, begin + chunk_cols);
}

void read_exact(std::FILE* f, void* dst, std::size_t bytes,
                const std::string& path, const char* what) {
  const std::size_t got = std::fread(dst, 1, bytes, f);
  if (got != bytes || SP_FAULT("storage.short_read"))
    throw Error(strprintf("storage: short read in %s of %s (wanted %zu "
                          "bytes, got %zu)",
                          what, path.c_str(), bytes, got));
}

void write_exact(std::FILE* f, const void* src, std::size_t bytes,
                 const std::string& path) {
  if (SP_FAULT("storage.enospc"))
    throw Error("storage: no space left on device writing " + path +
                " (injected)");
  const std::size_t put = std::fwrite(src, 1, bytes, f);
  if (put != bytes)
    throw Error(strprintf("storage: write failed on %s (%zu of %zu bytes)",
                          path.c_str(), put, bytes));
}

/// Extension zone inside the fixed header: an objective token and its own
/// checksum, occupying bytes that were reserved zeros in the v1 layout.
/// The main header checksum does not cover the zone (it predates it), so
/// the zone carries its own — all-zero means "no extension" (legacy or
/// default objective), anything else must validate.
constexpr std::size_t kObjectiveTokenOffset = 128;
constexpr std::size_t kObjectiveChecksumOffset =
    kObjectiveTokenOffset + kTokenBytes;  // 152; zone ends at 160

bool objective_is_default(std::string_view token) {
  return token.empty() || token == "unnormalized";
}

/// Serialized header bytes (exactly kHeaderBytes, checksum filled in).
std::vector<unsigned char> encode_header(const Fingerprint& key,
                                         const spectral::EigenBasis& basis,
                                         std::string_view solver_token,
                                         std::string_view strategy_token,
                                         std::string_view objective_token,
                                         std::size_t chunk_cols,
                                         std::uint64_t values_checksum) {
  std::vector<unsigned char> h;
  h.reserve(kHeaderBytes);
  append_u64(h, kBasisMagic);
  append_u32(h, kBasisVersion);
  append_u32(h, 0);  // reserved
  append_u64(h, basis.n);
  append_u64(h, basis.dimension());
  append_u64(h, chunk_cols);
  append_u64(h, key.hi);
  append_u64(h, key.lo);
  append_f64(h, basis.laplacian_trace);
  append_token(h, solver_token);
  append_token(h, strategy_token);
  append_u64(h, values_checksum);
  append_u64(h, checksum64(h.data(), h.size()));  // header checksum
  h.resize(kHeaderBytes, 0);
  if (!objective_is_default(objective_token)) {
    SP_REQUIRE(objective_token.size() < kTokenBytes,
               "storage: token '" + std::string(objective_token) +
                   "' exceeds the " + std::to_string(kTokenBytes) +
                   "-byte header field");
    std::memcpy(h.data() + kObjectiveTokenOffset, objective_token.data(),
                objective_token.size());
    const std::uint64_t sum =
        checksum64(h.data() + kObjectiveTokenOffset, kTokenBytes);
    std::memcpy(h.data() + kObjectiveChecksumOffset, &sum, 8);
  }
  return h;
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t len) {
  // FNV-1a 64: byte-oriented, deterministic, no tables.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::size_t num_chunks(std::size_t d, std::size_t chunk_cols) {
  SP_REQUIRE(chunk_cols > 0, "storage: chunk_cols must be positive");
  return (d + chunk_cols - 1) / chunk_cols;
}

std::size_t basis_file_size(std::size_t n, std::size_t d,
                            std::size_t chunk_cols) {
  // Header + values + (vector payload + one u64 checksum per chunk).
  return kHeaderBytes + 8 * d + 8 * n * d +
         8 * num_chunks(d, chunk_cols);
}

void write_basis_file(const std::string& path, const Fingerprint& key,
                      const spectral::EigenBasis& basis,
                      std::string_view solver_token,
                      std::string_view strategy_token,
                      std::string_view objective_token) {
  const std::size_t n = basis.n;
  const std::size_t d = basis.dimension();

  // Values block bytes (d fp64, bit patterns preserved).
  std::vector<unsigned char> values;
  values.reserve(8 * d);
  for (std::size_t j = 0; j < d; ++j) append_f64(values, basis.values[j]);

  const std::vector<unsigned char> header =
      encode_header(key, basis, solver_token, strategy_token,
                    objective_token, kChunkCols,
                    checksum64(values.data(), values.size()));

  File f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr)
    throw Error("storage: cannot open " + path + " for writing");
  write_exact(f.get(), header.data(), header.size(), path);
  write_exact(f.get(), values.data(), values.size(), path);

  // Chunks: column-major within each chunk, checksum trailing.
  std::vector<double> chunk;
  for (std::size_t c = 0; c < num_chunks(d, kChunkCols); ++c) {
    std::size_t begin = 0, end = 0;
    chunk_span(c, d, kChunkCols, begin, end);
    chunk.clear();
    chunk.reserve(n * (end - begin));
    for (std::size_t j = begin; j < end; ++j)
      for (std::size_t i = 0; i < n; ++i)
        chunk.push_back(basis.vectors.at(i, j));
    const std::size_t bytes = 8 * chunk.size();
    write_exact(f.get(), chunk.data(), bytes, path);
    const std::uint64_t sum = checksum64(chunk.data(), bytes);
    write_exact(f.get(), &sum, 8, path);
  }
  if (std::fflush(f.get()) != 0)
    throw Error("storage: flush failed on " + path);
}

std::optional<BasisHeader> read_basis_header(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return std::nullopt;
  unsigned char h[kHeaderBytes];
  if (std::fread(h, 1, kHeaderBytes, f.get()) != kHeaderBytes)
    return std::nullopt;

  if (load_u64(h) != kBasisMagic) return std::nullopt;
  if (load_u32(h + 8) != kBasisVersion) return std::nullopt;
  BasisHeader out;
  out.n = load_u64(h + 16);
  out.d = load_u64(h + 24);
  out.chunk_cols = load_u64(h + 32);
  out.key.hi = load_u64(h + 40);
  out.key.lo = load_u64(h + 48);
  out.laplacian_trace = load_f64(h + 56);
  out.solver_token = load_token(h + 64);
  out.strategy_token = load_token(h + 64 + kTokenBytes);
  out.values_checksum = load_u64(h + 64 + 2 * kTokenBytes);
  // Header checksum covers everything before itself.
  const std::size_t checked = 64 + 2 * kTokenBytes + 8;
  if (load_u64(h + checked) != checksum64(h, checked)) return std::nullopt;

  // Extension zone: all-zero (every legacy and default-objective file)
  // decodes as the default; otherwise the zone's own checksum must match
  // and the token must be non-empty.
  bool zone_used = false;
  for (std::size_t i = 0; i < kTokenBytes + 8; ++i)
    if (h[kObjectiveTokenOffset + i] != 0) {
      zone_used = true;
      break;
    }
  if (zone_used) {
    if (load_u64(h + kObjectiveChecksumOffset) !=
        checksum64(h + kObjectiveTokenOffset, kTokenBytes))
      return std::nullopt;
    out.objective_token = load_token(h + kObjectiveTokenOffset);
    if (out.objective_token.empty()) return std::nullopt;
  }

  if (out.n == 0 || out.d == 0 || out.chunk_cols == 0) return std::nullopt;
  // Guard the size product before trusting it (a corrupt header must not
  // drive a multi-terabyte allocation downstream). Every bound is checked
  // without wrapping: n * d by division, and chunk_cols like d, so that
  // num_chunks cannot wrap to zero and skip the chunk checksums.
  if (out.d > (1ull << 32) || out.chunk_cols > (1ull << 32) ||
      out.n > (1ull << 40) / out.d)
    return std::nullopt;

  std::error_code ec;
  const auto actual = std::filesystem::file_size(path, ec);
  if (ec || actual != basis_file_size(out.n, out.d, out.chunk_cols))
    return std::nullopt;
  return out;
}

spectral::EigenBasis read_basis_file(const std::string& path) {
  const std::optional<BasisHeader> hdr = read_basis_header(path);
  if (!hdr)
    throw Error("storage: invalid or truncated basis header in " + path);
  const std::size_t n = hdr->n;
  const std::size_t d = hdr->d;

  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) throw Error("storage: cannot open " + path);
  if (std::fseek(f.get(), static_cast<long>(kHeaderBytes), SEEK_SET) != 0)
    throw Error("storage: seek failed in " + path);

  spectral::EigenBasis out;
  out.n = n;
  out.laplacian_trace = hdr->laplacian_trace;
  out.values.resize(d);
  read_exact(f.get(), out.values.data(), 8 * d, path, "values block");
  std::uint64_t values_sum = checksum64(out.values.data(), 8 * d);
  if (SP_FAULT("storage.checksum_flip")) values_sum ^= 1;
  if (values_sum != hdr->values_checksum)
    throw Error("storage: values checksum mismatch in " + path);
  out.vectors = linalg::DenseMatrix(n, d);

  // Each chunk is read whole (the checksum's unit) and its columns are
  // scattered into the row-major matrix.
  std::vector<double> chunk;
  for (std::size_t c = 0; c < num_chunks(d, hdr->chunk_cols); ++c) {
    std::size_t begin = 0, end = 0;
    chunk_span(c, d, hdr->chunk_cols, begin, end);
    chunk.resize(n * (end - begin));
    read_exact(f.get(), chunk.data(), 8 * chunk.size(), path, "chunk");
    std::uint64_t stored_sum = 0;
    read_exact(f.get(), &stored_sum, 8, path, "chunk checksum");
    std::uint64_t sum = checksum64(chunk.data(), 8 * chunk.size());
    if (SP_FAULT("storage.checksum_flip")) sum ^= 1;
    if (sum != stored_sum)
      throw Error(strprintf("storage: chunk %zu checksum mismatch in %s",
                            c, path.c_str()));
    for (std::size_t j = begin; j < end; ++j)
      for (std::size_t i = 0; i < n; ++i)
        out.vectors.at(i, j) = chunk[(j - begin) * n + i];
  }

  // Only clean bases are ever stored; reconstruct the clean flags with
  // zero solve cost, exactly like an in-memory cache hit.
  out.requested = d;
  out.converged_pairs = d;
  out.converged = true;
  out.truncated = false;
  out.budget_exhausted = false;
  return out;
}

}  // namespace specpart::storage
