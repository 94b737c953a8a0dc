// One cache configuration of a multi-configuration sweep.
//
// Every validation table and tile-search ablation wants the same trace
// evaluated against many cache configurations. By Mattson's inclusion
// property the LRU stack of a small fully-associative cache is a prefix of
// the stack of a larger one, so one annotated stack answers every capacity
// at once: cachesim::simulate_sweep_streamed (parallel_stack.hpp) is the
// one engine that does it, and the header to include. This header only
// names the geometry the engine accepts.
#pragma once

#include <cstdint>

#include "cachesim/set_assoc_cache.hpp"

namespace sdlo::cachesim {

/// One cache configuration of a sweep.
struct SweepConfig {
  /// Total capacity in elements (> 0; a multiple of line_elems).
  std::int64_t capacity_elems = 0;
  /// Line size in elements (a power of two; 1 = the paper's element model).
  std::int64_t line_elems = 1;
  /// Associativity: 0 = fully associative (the marker-stack engine);
  /// otherwise a W-way set-associative geometry (a real cache model fed
  /// from a shared walk).
  int ways = 0;
  /// Replacement policy for set-associative configurations.
  Replacement policy = Replacement::kLru;
};

/// Throws ContractViolation unless `c` is a valid geometry: a positive
/// capacity that is a whole number of lines of a power-of-two size.
void check_sweep_config(const SweepConfig& c);

}  // namespace sdlo::cachesim
