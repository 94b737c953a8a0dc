// Per-access reference drivers: each feeds every access of a
// CompiledProgram's walk() to one cache simulator or to the recency index
// (recency_index.hpp), with no run-group shortcut. They produce the
// "#Actual misses" columns of Tables 2 and 3, and they are what tests and
// the fuzz battery check the streamed sweep engine and the symbolic sweep
// against.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cachesim/lru_cache.hpp"
#include "cachesim/results.hpp"
#include "cachesim/set_assoc_cache.hpp"
#include "trace/walker.hpp"

namespace sdlo::cachesim {

/// Simulates the full trace against a fully-associative LRU cache of
/// `capacity` elements: simulate_lru_lines at one element per line.
SimResult simulate_lru(const trace::CompiledProgram& prog,
                       std::int64_t capacity);

/// Simulates against a set-associative cache (conflict-miss ablation).
SimResult simulate_set_assoc(const trace::CompiledProgram& prog,
                             std::int64_t capacity_elems, int ways,
                             std::int64_t line_elems);

/// Fully-associative LRU at cache-*line* granularity: addresses are grouped
/// into lines of `line_elems` (a power of two) and the cache holds
/// capacity_elems / line_elems lines. line_elems == 1 degenerates to
/// simulate_lru. This is the spatial-locality dimension the paper's
/// element-granularity model ignores (each array is assumed line-aligned).
SimResult simulate_lru_lines(const trace::CompiledProgram& prog,
                             std::int64_t capacity_elems,
                             std::int64_t line_elems);

/// Profiles the trace at `line_elems` granularity (a power of two):
/// addresses are grouped into lines and every access of walk() is fed to a
/// RecencyIndex as `d = resolve(line); append(line);`, recording d (0 for a
/// cold access) in the global and per-site depth histograms in one walk.
ProfileResult profile_stack_distances(const trace::CompiledProgram& prog,
                                      std::int64_t line_elems = 1);

}  // namespace sdlo::cachesim
