#include "util/simd.h"

#include <atomic>

namespace specpart::simd {

namespace {

bool host_has_avx2() {
#ifdef SPECPART_SIMD_AVX2
  // libgcc's check covers the OS side too: AVX2 reads as absent unless
  // XGETBV shows the YMM state enabled.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

std::atomic<int> g_baseline_pins{0};

}  // namespace

Isa active_isa() {
  return host_has_avx2() && g_baseline_pins.load(std::memory_order_relaxed) == 0
             ? Isa::kAvx2
             : Isa::kBaseline;
}

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "baseline";
}

ScopedBaseline::ScopedBaseline() { g_baseline_pins.fetch_add(1); }

ScopedBaseline::~ScopedBaseline() { g_baseline_pins.fetch_sub(1); }

}  // namespace specpart::simd
