#include "support/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define SDLO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace sdlo::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar bodies: the reference semantics every vector body must reproduce
// bit for bit.

void add_u64_scalar(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void run_lines_scalar(std::uint64_t base, std::int64_t stride, int shift,
                      std::uint64_t* out, std::size_t n) {
  std::uint64_t a = base;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a >> shift;
    a += static_cast<std::uint64_t>(stride);
  }
}

std::size_t find_not_equal_scalar(const std::uint64_t* a, std::size_t n,
                                  std::size_t from, std::uint64_t value) {
  for (std::size_t i = from; i < n; ++i) {
    if (a[i] != value) return i;
  }
  return n;
}

void gather_u64_scalar(const std::uint64_t* table, const std::uint64_t* idx,
                       std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = table[static_cast<std::size_t>(idx[i])];
  }
}

// ---------------------------------------------------------------------------
// Tier probing and the process-wide dispatch state.

Isa probe_cpu() {
#if defined(SDLO_SIMD_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kSse2;  // the x86-64 baseline
#else
  return Isa::kScalar;
#endif
}

/// Clamps a requested tier to what the CPU supports: the tiers are totally
/// ordered.
Isa clamp_isa(Isa want, Isa have) {
  return static_cast<std::uint8_t>(want) < static_cast<std::uint8_t>(have)
             ? want
             : have;
}

bool parse_isa(const char* name, Isa* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) *out = Isa::kScalar;
  else if (std::strcmp(name, "sse2") == 0) *out = Isa::kSse2;
  else if (std::strcmp(name, "avx2") == 0) *out = Isa::kAvx2;
  else if (std::strcmp(name, "avx512") == 0) *out = Isa::kAvx512;
  else return false;
  return true;
}

std::atomic<Isa>& active_flag() {
  static std::atomic<Isa> flag{[] {
    Isa isa = probe_cpu();
    Isa forced;
    if (parse_isa(std::getenv("SDLO_SIMD"), &forced)) {
      isa = clamp_isa(forced, isa);
    }
    return isa;
  }()};
  return flag;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{std::getenv("SDLO_NO_SIMD") == nullptr};
  return flag;
}

/// The tier a call should run at right now.
Isa dispatch_isa() {
  if (!enabled_flag().load(std::memory_order_relaxed)) return Isa::kScalar;
  return active_flag().load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// x86-64 vector bodies. Each tier is a separate target-attributed function
// so one binary carries them all; dispatch_isa() guarantees a body only
// runs on hardware that supports it.

#if defined(SDLO_SIMD_X86)

// GCC's avx512fintrin.h passes an intentionally undefined source register
// to the unmasked forms (_mm512_undefined_epi32), which -Wmaybe-uninitialized
// flags through inlining; the lanes it "reads" are fully overwritten.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("sse2"))) void add_u64_sse2(std::uint64_t* dst,
                                                  const std::uint64_t* src,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_add_epi64(d, s));
  }
  add_u64_scalar(dst + i, src + i, n - i);
}

__attribute__((target("avx2"))) void add_u64_avx2(std::uint64_t* dst,
                                                  const std::uint64_t* src,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi64(d, s));
  }
  add_u64_scalar(dst + i, src + i, n - i);
}

__attribute__((target("avx512f"))) void add_u64_avx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_add_epi64(d, s));
  }
  add_u64_scalar(dst + i, src + i, n - i);
}

__attribute__((target("sse2"))) void run_lines_sse2(std::uint64_t base,
                                                    std::int64_t stride,
                                                    int shift,
                                                    std::uint64_t* out,
                                                    std::size_t n) {
  const std::uint64_t s = static_cast<std::uint64_t>(stride);
  __m128i a = _mm_set_epi64x(static_cast<long long>(base + s),
                             static_cast<long long>(base));
  const __m128i step = _mm_set1_epi64x(static_cast<long long>(2 * s));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_srli_epi64(a, shift));
    a = _mm_add_epi64(a, step);
  }
  run_lines_scalar(base + i * s, stride, shift, out + i, n - i);
}

__attribute__((target("avx2"))) void run_lines_avx2(std::uint64_t base,
                                                    std::int64_t stride,
                                                    int shift,
                                                    std::uint64_t* out,
                                                    std::size_t n) {
  const std::uint64_t s = static_cast<std::uint64_t>(stride);
  __m256i a = _mm256_set_epi64x(
      static_cast<long long>(base + 3 * s),
      static_cast<long long>(base + 2 * s),
      static_cast<long long>(base + s), static_cast<long long>(base));
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * s));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_srli_epi64(a, shift));
    a = _mm256_add_epi64(a, step);
  }
  run_lines_scalar(base + i * s, stride, shift, out + i, n - i);
}

__attribute__((target("avx512f"))) void run_lines_avx512(
    std::uint64_t base, std::int64_t stride, int shift, std::uint64_t* out,
    std::size_t n) {
  const std::uint64_t s = static_cast<std::uint64_t>(stride);
  __m512i a = _mm512_set_epi64(
      static_cast<long long>(base + 7 * s),
      static_cast<long long>(base + 6 * s),
      static_cast<long long>(base + 5 * s),
      static_cast<long long>(base + 4 * s),
      static_cast<long long>(base + 3 * s),
      static_cast<long long>(base + 2 * s),
      static_cast<long long>(base + s), static_cast<long long>(base));
  const __m512i step = _mm512_set1_epi64(static_cast<long long>(8 * s));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(out + i,
                        _mm512_srli_epi64(a, static_cast<unsigned>(shift)));
    a = _mm512_add_epi64(a, step);
  }
  run_lines_scalar(base + i * s, stride, shift, out + i, n - i);
}

__attribute__((target("sse2"))) std::size_t find_not_equal_sse2(
    const std::uint64_t* a, std::size_t n, std::size_t from,
    std::uint64_t value) {
  // SSE2 has no 64-bit compare; compare as 2x32 and require both halves of
  // each lane equal (movemask 0xFFFF over the 16 bytes).
  const __m128i v = _mm_set1_epi64x(static_cast<long long>(value));
  std::size_t i = from;
  for (; i + 2 <= n; i += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i eq = _mm_cmpeq_epi32(x, v);
    if (_mm_movemask_epi8(eq) != 0xFFFF) {
      return find_not_equal_scalar(a, n, i, value);
    }
  }
  return find_not_equal_scalar(a, n, i, value);
}

__attribute__((target("avx2"))) std::size_t find_not_equal_avx2(
    const std::uint64_t* a, std::size_t n, std::size_t from,
    std::uint64_t value) {
  const __m256i v = _mm256_set1_epi64x(static_cast<long long>(value));
  std::size_t i = from;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i eq = _mm256_cmpeq_epi64(x, v);
    if (_mm256_movemask_epi8(eq) != -1) {
      return find_not_equal_scalar(a, n, i, value);
    }
  }
  return find_not_equal_scalar(a, n, i, value);
}

__attribute__((target("avx512f"))) std::size_t find_not_equal_avx512(
    const std::uint64_t* a, std::size_t n, std::size_t from,
    std::uint64_t value) {
  const __m512i v = _mm512_set1_epi64(static_cast<long long>(value));
  std::size_t i = from;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(a + i);
    const __mmask8 eq = _mm512_cmpeq_epu64_mask(x, v);
    if (eq != 0xFF) return find_not_equal_scalar(a, n, i, value);
  }
  return find_not_equal_scalar(a, n, i, value);
}

__attribute__((target("avx2"))) void gather_u64_avx2(
    const std::uint64_t* table, const std::uint64_t* idx, std::uint64_t* out,
    std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ix =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i g = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(table), ix, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), g);
  }
  gather_u64_scalar(table, idx + i, out + i, n - i);
}

__attribute__((target("avx512f"))) void gather_u64_avx512(
    const std::uint64_t* table, const std::uint64_t* idx, std::uint64_t* out,
    std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i ix = _mm512_loadu_si512(idx + i);
    const __m512i g = _mm512_i64gather_epi64(ix, table, 8);
    _mm512_storeu_si512(out + i, g);
  }
  gather_u64_scalar(table, idx + i, out + i, n - i);
}

#pragma GCC diagnostic pop

#endif  // SDLO_SIMD_X86

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
    case Isa::kScalar: break;
  }
  return "scalar";
}

Isa detected_isa() {
  static const Isa probed = probe_cpu();
  return probed;
}

Isa active_isa() { return active_flag().load(std::memory_order_relaxed); }

const char* isa() { return isa_name(active_isa()); }

Isa set_isa(Isa isa) {
  const Isa applied = clamp_isa(isa, detected_isa());
  active_flag().store(applied, std::memory_order_relaxed);
  return applied;
}

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void add_u64(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  switch (dispatch_isa()) {
#if defined(SDLO_SIMD_X86)
    case Isa::kAvx512: return add_u64_avx512(dst, src, n);
    case Isa::kAvx2: return add_u64_avx2(dst, src, n);
    case Isa::kSse2: return add_u64_sse2(dst, src, n);
#endif
    default: return add_u64_scalar(dst, src, n);
  }
}

void run_lines(std::uint64_t base, std::int64_t stride, int shift,
               std::uint64_t* out, std::size_t n) {
  switch (dispatch_isa()) {
#if defined(SDLO_SIMD_X86)
    case Isa::kAvx512: return run_lines_avx512(base, stride, shift, out, n);
    case Isa::kAvx2: return run_lines_avx2(base, stride, shift, out, n);
    case Isa::kSse2: return run_lines_sse2(base, stride, shift, out, n);
#endif
    default: return run_lines_scalar(base, stride, shift, out, n);
  }
}

std::size_t find_not_equal(const std::uint64_t* a, std::size_t n,
                           std::size_t from, std::uint64_t value) {
  switch (dispatch_isa()) {
#if defined(SDLO_SIMD_X86)
    case Isa::kAvx512: return find_not_equal_avx512(a, n, from, value);
    case Isa::kAvx2: return find_not_equal_avx2(a, n, from, value);
    case Isa::kSse2: return find_not_equal_sse2(a, n, from, value);
#endif
    default: return find_not_equal_scalar(a, n, from, value);
  }
}

void gather_u64(const std::uint64_t* table, const std::uint64_t* idx,
                std::uint64_t* out, std::size_t n) {
  switch (dispatch_isa()) {
#if defined(SDLO_SIMD_X86)
    case Isa::kAvx512: return gather_u64_avx512(table, idx, out, n);
    case Isa::kAvx2: return gather_u64_avx2(table, idx, out, n);
#endif
    default: return gather_u64_scalar(table, idx, out, n);
  }
}

}  // namespace sdlo::simd
