// Convenience drivers: run a CompiledProgram's trace through a cache
// simulator or the stack-distance profiler and collect statistics. These
// produce the "#Actual misses" columns of Tables 2 and 3.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cachesim/lru_cache.hpp"
#include "cachesim/results.hpp"
#include "cachesim/set_assoc_cache.hpp"
#include "cachesim/stack_profiler.hpp"
#include "support/governor.hpp"
#include "trace/walker.hpp"

namespace sdlo::cachesim {

/// Simulates the full trace against a fully-associative LRU cache of
/// `capacity` elements.
SimResult simulate_lru(const trace::CompiledProgram& prog,
                       std::int64_t capacity);

/// Simulates against a set-associative cache (conflict-miss ablation).
SimResult simulate_set_assoc(const trace::CompiledProgram& prog,
                             std::int64_t capacity_elems, int ways,
                             std::int64_t line_elems,
                             Replacement policy = Replacement::kLru);

/// Fully-associative LRU at cache-*line* granularity: addresses are grouped
/// into lines of `line_elems` (a power of two) and the cache holds
/// capacity_elems / line_elems lines. line_elems == 1 degenerates to
/// simulate_lru. This is the spatial-locality dimension the paper's
/// element-granularity model ignores (each array is assumed line-aligned).
SimResult simulate_lru_lines(const trace::CompiledProgram& prog,
                             std::int64_t capacity_elems,
                             std::int64_t line_elems);

/// Profiles the trace at `line_elems` granularity (a power of two dividing
/// nothing in particular — addresses are grouped into lines), recording
/// global and per-site depth histograms in one walk of the run-compressed
/// trace, bulk-accounting same-line repeats and steady-state pinned groups.
/// The result is bit-identical to feeding every access of walk() to
/// StackDistanceProfiler::access; tests and the fuzz battery use it as the
/// reference for the streamed engine and the symbolic sweep.
///
/// `gov`, when non-null, governs the walk: the profiler polls every
/// `gov->poll_interval` run groups and, when the deadline or cancellation
/// trips, returns the exact profile of the consumed prefix marked
/// kTruncated. `gov->memory` additionally gates the dense last-access
/// table: when the reservation is denied the profiler falls back to the
/// hashed table (bit-identical results, just slower).
ProfileResult profile_stack_distances(const trace::CompiledProgram& prog,
                                      std::int64_t line_elems = 1,
                                      const Governor* gov = nullptr);

}  // namespace sdlo::cachesim
