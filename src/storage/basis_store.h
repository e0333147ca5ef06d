// On-disk eigenbasis format: chunked column-major fp64 with a fixed
// header and per-chunk checksums.
//
// The persistent cache tier stores each eigenbasis as one file, and
// reads it back whole (the cache promotes full bases, see
// service/cache.h):
//
//   [header, 192 bytes fixed]
//     magic, version, n, d, chunk_cols, v2 netlist fingerprint,
//     laplacian trace, solver/strategy tokens, values checksum,
//     header checksum, then the extension zone [128, 192): an objective
//     token + its own checksum, written only for non-default objectives
//     (all-zero = unnormalized, so every pre-objective file and every
//     default-objective file is byte-identical to the v1 layout)
//   [values block]  d x fp64 eigenvalues (ascending)
//   [chunk 0]       columns [0, chunk_cols) column-major, n fp64 each,
//                   followed by a u64 checksum of the chunk bytes
//   [chunk 1]       columns [chunk_cols, 2*chunk_cols) ... checksum
//   ...
//
// The writer always uses kChunkCols columns per chunk; the reader honours
// whatever width a file's header declares. The chunk is the unit of
// integrity: each one is verified against its own checksum, so
// corruption is caught before a column of it reaches the caller.
// Eigenvalues live with the header because they are d doubles — always
// cheap — while the vectors are n x d and dominate the file.
//
// The checksums are FNV-1a 64 over the raw bytes: deterministic across
// platforms and runs, defending against torn writes and bit rot, not
// adversaries (matching the content-fingerprint philosophy of
// util/hashing.h). Every read validates; every validation failure throws
// specpart::Error so the caller (store_index.h) can quarantine the entry
// and fall back to recompute — a corrupt file must never surface wrong
// bytes, and must never abort the process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "spectral/embedding.h"
#include "util/hashing.h"

namespace specpart::storage {

/// First 8 bytes of every basis file ("SPEC.EB1" little-endian).
inline constexpr std::uint64_t kBasisMagic = 0x3142452E43455053ULL;
inline constexpr std::uint32_t kBasisVersion = 1;
/// Fixed header size; the values block starts at this offset.
inline constexpr std::size_t kHeaderBytes = 192;
/// Fixed width of the solver/strategy token fields (zero-padded).
inline constexpr std::size_t kTokenBytes = 24;
/// Columns per chunk of every written file (a d = 16 quantized basis
/// spans 4 chunks).
inline constexpr std::size_t kChunkCols = 4;

/// Decoded fixed header of one basis file.
struct BasisHeader {
  std::uint64_t n = 0;
  /// Columns stored (the dimension-quantized solve count).
  std::uint64_t d = 0;
  std::uint64_t chunk_cols = 0;
  /// Content key the entry was stored under (the eigensolve fingerprint).
  Fingerprint key;
  double laplacian_trace = 0.0;
  std::string solver_token;
  std::string strategy_token;
  /// Objective-model token of the operator the basis was solved on.
  /// Stored in the extension zone only when non-default; an all-zero zone
  /// (every legacy file) decodes as "unnormalized".
  std::string objective_token = "unnormalized";
  /// FNV-1a 64 of the values block (verified by read_basis_file).
  std::uint64_t values_checksum = 0;
};

/// FNV-1a 64 over a byte span.
std::uint64_t checksum64(const void* data, std::size_t len);

/// Chunks a d-column basis spans at `chunk_cols` columns per chunk.
std::size_t num_chunks(std::size_t d, std::size_t chunk_cols);

/// Exact file size of a stored (n, d) basis — header + values + chunks +
/// per-chunk checksums. This is also the byte cost the eviction budget
/// accounts for an entry.
std::size_t basis_file_size(std::size_t n, std::size_t d,
                            std::size_t chunk_cols);

/// Writes `basis` (all of it) to `path`, overwriting. Throws
/// specpart::Error on any I/O failure (including the injected
/// storage.enospc fault). The caller is responsible for making the write
/// crash-safe (temp file + atomic rename; see store_index.h).
/// `objective_token` is written into the header's extension zone only
/// when it names a non-default objective; empty or "unnormalized" leaves
/// the zone zeroed, keeping default files byte-identical to the v1 layout.
void write_basis_file(const std::string& path, const Fingerprint& key,
                      const spectral::EigenBasis& basis,
                      std::string_view solver_token,
                      std::string_view strategy_token,
                      std::string_view objective_token = {});

/// Reads and validates the fixed header alone (magic, version, field
/// sanity, header checksum, and the exact file size implied by n/d/
/// chunk_cols). Returns nullopt on any mismatch — the scan-on-open
/// validation path, which must not throw on garbage files.
std::optional<BasisHeader> read_basis_header(const std::string& path);

/// Reads every stored column through one open of `path`. Returns nullopt
/// when the file cannot be opened (absent, or evicted since it was
/// looked up): that is a miss, not corruption. Verifies the header, the
/// values checksum and each chunk's checksum; throws specpart::Error on
/// corruption, truncation or short read (including the injected
/// storage.short_read / storage.checksum_flip faults). The returned basis
/// is reconstructed as clean — only clean bases are ever stored — with
/// zero solve cost counters, exactly like an in-memory cache hit.
std::optional<spectral::EigenBasis> read_basis_file(const std::string& path);

}  // namespace specpart::storage
