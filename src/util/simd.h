// Kernel ISA dispatch: one source, two clones, the same bits.
//
// The library is built for baseline x86-64, whose vector unit is SSE2 (two
// doubles per instruction). The loops where the multilevel V-cycle and the
// dense eigensolver spend their time are written once and compiled twice:
// as plain code, and inside a [[gnu::target("avx2")]] template that
// flattens the loop into itself, so the same source also runs four
// doubles per instruction. simd::run(body) picks the AVX2 clone when CPUID
// reports AVX2 (checked once per process) and the plain body otherwise.
// Off x86-64 GCC/Clang it is always the plain body.
//
// The contract (docs/PERFORMANCE.md, "Kernel ISA"):
//  * AVX2 only, never FMA or AVX-512 (AVX-512F has FMA instructions of
//    its own): with FMA available GCC fuses a*b + c (its C++ default is
//    -ffp-contract=fast), which changes bits. Without fast-math nothing is
//    reassociated, so every element goes through the same IEEE operations
//    in the same order on either clone.
//  * Dispatch inside each block body, the function one parallel_for or
//    parallel_reduce block runs, never around the kernel's entry point:
//    ThreadPool runs blocks through std::function, and code reached that
//    way is compiled once, without the target attribute.
//  * Clone code whose hot loops run over independent elements. Sequential
//    sums (CGS2 dots, matvec rows) cannot vectorize without reassociation,
//    and DP-RP and MELO stay baseline code: a global -mavx2 build made
//    DP-RP slower.
#pragma once

namespace specpart::simd {

enum class Isa { kBaseline, kAvx2 };

/// The clone simd::run dispatches to in this process right now: kAvx2
/// when the CPU and the OS support AVX2 and no ScopedBaseline is alive.
Isa active_isa();

/// "avx2" or "baseline".
const char* isa_name(Isa isa);

/// Test-only: while alive, simd::run takes the baseline clone on every
/// thread, so a test can compare both clones bit for bit on one host.
/// Guards nest; like fault::ScopedFaults, production code never makes one.
class ScopedBaseline {
 public:
  ScopedBaseline();
  ~ScopedBaseline();
  ScopedBaseline(const ScopedBaseline&) = delete;
  ScopedBaseline& operator=(const ScopedBaseline&) = delete;
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPECPART_SIMD_AVX2 1
namespace detail {
/// The AVX2 clone of `body`: flatten inlines the body's whole call tree
/// here, so all of it is compiled for this target.
template <class Body>
[[gnu::target("avx2"), gnu::flatten]] void run_avx2(Body& body) {
  body();
}
}  // namespace detail
#endif

/// Runs body() in the clone active_isa() names.
template <class Body>
void run(Body&& body) {
#ifdef SPECPART_SIMD_AVX2
  if (active_isa() == Isa::kAvx2) {
    detail::run_avx2(body);
    return;
  }
#endif
  body();
}

}  // namespace specpart::simd
