// One cache configuration of a multi-configuration sweep.
//
// Every validation table and tile-search ablation wants the same trace
// evaluated against many cache configurations. By Mattson's inclusion
// property the LRU stack of a small fully-associative cache is a prefix of
// the stack of a larger one, so one annotated stack answers every capacity
// at once: cachesim::simulate_sweep_streamed (parallel_stack.hpp) is the
// one engine that does it, and the header to include. This header only
// names the geometry the engine accepts: a fully-associative LRU cache,
// the paper's model (§5.2). Set-associative geometries are simulated one
// at a time by simulate_set_assoc (sim.hpp).
#pragma once

#include <cstdint>

namespace sdlo::cachesim {

/// Replacement policy. LRU is the only one; the enum remains because
/// SweepConfig::policy still spells it.
enum class Replacement : std::uint8_t { kLru };

/// One cache configuration of a sweep.
struct SweepConfig {
  /// Total capacity in elements (> 0; a multiple of line_elems).
  std::int64_t capacity_elems = 0;
  /// Line size in elements (a power of two; 1 = the paper's element model).
  std::int64_t line_elems = 1;
  /// Must be 0 (fully associative). Kept only for aggregate initializers
  /// that still spell all four members.
  int ways = 0;
  /// Must be kLru; kept for the same reason as `ways`.
  Replacement policy = Replacement::kLru;
};

/// Throws ContractViolation unless `c` is a valid geometry: a positive
/// capacity that is a whole number of lines of a power-of-two size, fully
/// associative.
void check_sweep_config(const SweepConfig& c);

}  // namespace sdlo::cachesim
