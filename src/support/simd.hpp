// The vector ISA this build was compiled for. The engines have no
// hand-written vector code; their loops are plain loops the compiler may
// vectorize at the build's target. This header exists only for the
// bench/e2e host record's "simd" field and goes when that field does.
#pragma once

#include <cstdint>

namespace sdlo::simd {

enum class Isa : std::uint8_t { kScalar, kSse2, kAvx2, kAvx512 };

constexpr const char* isa_name(Isa isa) {
  constexpr const char* kNames[] = {"scalar", "sse2", "avx2", "avx512"};
  return kNames[static_cast<std::uint8_t>(isa)];
}

constexpr Isa active_isa() {
#if defined(__AVX512F__)
  return Isa::kAvx512;
#elif defined(__AVX2__)
  return Isa::kAvx2;
#elif defined(__SSE2__)
  return Isa::kSse2;
#else
  return Isa::kScalar;
#endif
}

}  // namespace sdlo::simd
