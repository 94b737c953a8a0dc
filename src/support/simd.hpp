// Portable SIMD shim for the dense bulk paths of the trace engines.
//
// The hot loops of the sweep/profile pipeline that are *not* inherently
// serial pointer-chasing are flat-array sweeps: elementwise accumulation of
// per-chunk histogram buckets, generation of the line-index sequence of a
// constant-stride run, scanning a dense last-access table for occupied
// slots, and gathering scattered dense-table entries for a batch of lines.
// Each of those is expressed here once, with vector bodies for every
// instruction set the binary may meet at runtime (AVX-512 > AVX2 > SSE2 on
// x86-64) and a scalar body everywhere else. The scalar
// and vector bodies are bit-identical by construction — every operation is
// exact integer arithmetic — so callers never need to know which ran.
//
// Dispatch is at RUNTIME: the vector bodies are compiled with per-function
// target attributes, the host's best instruction set is probed once at
// first use, and every call switches on the active tier. The tier can be
// forced down without rebuilding — SDLO_SIMD=scalar|sse2|avx2|avx512 (or
// set_isa()) clamps to what the CPU supports, and the legacy SDLO_NO_SIMD /
// set_enabled(false) switch still drops everything to the scalar bodies.
// The ablation bench and the CI dispatch matrix use this to measure and
// cross-check every tier on identical binaries.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sdlo::simd {

/// Vector instruction tiers, ordered weakest to strongest on x86-64. Other
/// architectures run the scalar bodies.
enum class Isa : std::uint8_t { kScalar, kSse2, kAvx2, kAvx512 };

/// Canonical lowercase name of a tier ("avx512", "avx2", ...).
const char* isa_name(Isa isa);

/// Strongest tier the running CPU supports, probed once via
/// __builtin_cpu_supports (x86-64) or the architecture baseline.
Isa detected_isa();

/// The tier the vector bodies currently run at: detected_isa() clamped by
/// the SDLO_SIMD environment variable (if set) and by set_isa().
Isa active_isa();

/// Name of the active tier (for logs/benches): isa_name(active_isa()).
const char* isa();

/// Forces the active tier, clamped to what the CPU supports. Returns the
/// tier actually applied. Process-wide (ablation / tests).
Isa set_isa(Isa isa);

/// True when the vector bodies are active. Defaults to true unless the
/// SDLO_NO_SIMD environment variable is set (to anything) at first use.
bool enabled();

/// Turns the vector bodies on or off process-wide (ablation / tests).
void set_enabled(bool on);

/// dst[i] += src[i] for i in [0, n). The bucket/histogram merge primitive.
void add_u64(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);

/// out[i] = (base + i*stride) >> shift for i in [0, n): the cache-line
/// index sequence of a constant-stride run, batch-generated so the
/// consuming stack walk runs over a flat prefetchable buffer. Addresses
/// wrap mod 2^64, matching trace::Run::at.
void run_lines(std::uint64_t base, std::int64_t stride, int shift,
               std::uint64_t* out, std::size_t n);

/// First index i in [from, n) with a[i] != value, or n when every slot
/// matches. The dense-table occupancy scan (compaction, recency export).
std::size_t find_not_equal(const std::uint64_t* a, std::size_t n,
                           std::size_t from, std::uint64_t value);

/// out[i] = table[idx[i]] for i in [0, n): gathered dense-table bulk load.
/// The hole-merge pass uses it to fetch a whole chunk's last-access
/// timestamps in one sweep instead of one dependent load per hole.
/// Callers guarantee every idx[i] is in bounds.
void gather_u64(const std::uint64_t* table, const std::uint64_t* idx,
                std::uint64_t* out, std::size_t n);

}  // namespace sdlo::simd
