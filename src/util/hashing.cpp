#include "util/hashing.h"

#include <cstring>

#include "util/rng.h"
#include "util/stringutil.h"

namespace specpart {

namespace {

// Distinct lane seeds so the two splitmix64 streams are independent; the
// values are arbitrary odd constants (golden-ratio relatives).
constexpr std::uint64_t kLane0Init = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kLane1Init = 0xC2B2AE3D27D4EB4FULL;

}  // namespace

std::string Fingerprint::hex() const {
  return strprintf("%016llx%016llx", static_cast<unsigned long long>(hi),
                   static_cast<unsigned long long>(lo));
}

Hasher::Hasher() : lane0_(kLane0Init), lane1_(kLane1Init) {}

void Hasher::mix_u64(std::uint64_t v) {
  // Absorb-by-perturb: xor the word into each lane state, then advance the
  // lane with a full splitmix64 step. Each absorbed word therefore diffuses
  // through every later digest bit.
  lane0_ ^= v;
  (void)splitmix64(lane0_);
  lane1_ ^= v + 0x632BE59BD9B4E019ULL;
  (void)splitmix64(lane1_);
}

void Hasher::mix_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix_u64(bits);
}

void Hasher::mix_string(std::string_view s) {
  mix_size(s.size());
  std::uint64_t word = 0;
  std::size_t fill = 0;
  for (const char c : s) {
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
            << (8 * fill);
    if (++fill == 8) {
      mix_u64(word);
      word = 0;
      fill = 0;
    }
  }
  if (fill > 0) mix_u64(word);
}

void Hasher::mix_span(std::span<const double> v) {
  mix_size(v.size());
  for (const double x : v) mix_double(x);
}

void Hasher::mix_span(std::span<const std::uint32_t> v) {
  mix_size(v.size());
  // Pack two 32-bit words per absorbed 64-bit word.
  std::size_t i = 0;
  for (; i + 1 < v.size(); i += 2)
    mix_u64(static_cast<std::uint64_t>(v[i]) |
            (static_cast<std::uint64_t>(v[i + 1]) << 32));
  if (i < v.size()) mix_u64(v[i]);
}

void Hasher::mix_span(std::span<const std::size_t> v) {
  mix_size(v.size());
  for (const std::size_t x : v) mix_size(x);
}

Fingerprint Hasher::digest() const {
  // Finalize copies of the lanes so digest() can be called mid-stream.
  std::uint64_t a = lane0_;
  std::uint64_t b = lane1_;
  Fingerprint f;
  f.hi = splitmix64(a) ^ splitmix64(b);
  f.lo = splitmix64(a) + splitmix64(b);
  return f;
}

}  // namespace specpart
