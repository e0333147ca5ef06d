// Content-addressed fingerprinting built on splitmix64.
//
// The serving layer keys its embedding cache by a fingerprint of everything
// the eigensolve depends on (graph CSR arrays, solver options, seed). The
// hasher is a simple streaming construction: every absorbed word advances a
// splitmix64 state twice (two independent lanes with distinct initial
// states), giving a 128-bit digest. It is *not* cryptographic — it defends
// against accidental collisions across workloads, not adversaries — but it
// is deterministic across platforms and runs, which is what a
// content-addressed cache needs: the same request always maps to the same
// key, on every machine, at every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace specpart {

/// 128-bit content digest. Comparable and hashable (for use as a map key).
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
  friend bool operator<(const Fingerprint& a, const Fingerprint& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  /// 32 lowercase hex digits (hi then lo), e.g. for logs and metrics.
  std::string hex() const;
};

/// std::unordered_map adapter: the digest is already uniformly mixed, so
/// folding the two lanes is enough.
struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.hi ^ (f.lo * 0x9E3779B97F4A7C15ULL));
  }
};

/// Streaming hasher. Absorb words/bytes in a fixed order, then digest().
/// The digest depends on the exact absorb sequence (values *and* order),
/// so callers must absorb length prefixes before variable-length data —
/// the mix_span/mix_string helpers do this for you.
class Hasher {
 public:
  Hasher();

  void mix_u64(std::uint64_t v);
  void mix_size(std::size_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
  void mix_bool(bool v) { mix_u64(v ? 1 : 0); }

  /// Bit pattern of the double (so -0.0 != +0.0 and NaNs are stable).
  void mix_double(double v);

  /// Length-prefixed byte string.
  void mix_string(std::string_view s);

  /// Length-prefixed spans of trivially-hashable elements.
  void mix_span(std::span<const double> v);
  void mix_span(std::span<const std::uint32_t> v);
  void mix_span(std::span<const std::size_t> v);

  Fingerprint digest() const;

 private:
  std::uint64_t lane0_;
  std::uint64_t lane1_;
};

}  // namespace specpart
