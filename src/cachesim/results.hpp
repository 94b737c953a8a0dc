// Shared result shapes of the miss-semantics engines.
//
// Every implementation of the paper's miss semantics — the trace-walking
// simulators (cachesim/sim.hpp, cachesim/sweep.hpp), the exact
// stack-distance profiler, and the analytic symbolic sweep
// (model/symbolic_sweep.hpp) — answers in the same two currencies:
//
//   SimResult      miss counts of one cache configuration, with per-site
//                  attribution;
//   ProfileResult  a stack-distance histogram, from which the SimResult of
//                  *any* fully-associative LRU capacity falls out without
//                  another walk (misses(C) = cold + sum_{d > C} hist[d]).
//
// They live here, below both the simulators and the model, so the analytic
// engine can be checked against the simulated one bit for bit in the
// fuzzing oracle battery without a dependency cycle.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "support/governor.hpp"

namespace sdlo::cachesim {

/// Folds a stack-distance histogram into the miss count of a
/// fully-associative LRU cache of `capacity` elements: cold accesses plus
/// every access whose depth exceeds the capacity. Shared by every
/// histogram-shaped result in the library.
std::uint64_t misses_from_histogram(
    const std::map<std::int64_t, std::uint64_t>& histogram,
    std::uint64_t cold, std::int64_t capacity);

/// Result of a fully-associative LRU simulation.
struct SimResult {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  /// Misses attributed to each access site (indexed by CompiledProgram
  /// site ids). The per-site breakdown validates per-partition predictions.
  std::vector<std::uint64_t> misses_by_site;
  /// kTruncated when a Governor stopped the walk early; the counts are
  /// then the exact simulation of the consumed trace prefix (whole run
  /// groups), hence lower bounds on the full-trace counts.
  Completeness completeness = Completeness::kComplete;

  double miss_ratio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

/// Exact stack-distance profile of the full trace; `misses(C)` then answers
/// every capacity in O(log #depths), and `result(C)` reconstructs the full
/// SimResult — per-site miss counts included — without another walk.
struct ProfileResult {
  std::uint64_t accesses = 0;
  std::uint64_t cold = 0;
  /// kTruncated when a Governor stopped the symbolic sweep that produced
  /// it early (the trace profiler always runs to completion).
  Completeness completeness = Completeness::kComplete;
  /// Line granularity the trace was profiled at (depths are in lines).
  std::int64_t line_elems = 1;
  std::map<std::int64_t, std::uint64_t> histogram;
  /// Per-site cold counts and depth histograms (indexed by site id).
  std::vector<std::uint64_t> cold_by_site;
  std::vector<std::map<std::int64_t, std::uint64_t>> histogram_by_site;

  /// Misses of a fully-associative LRU cache of `capacity_elems` elements
  /// (holding capacity_elems / line_elems lines).
  std::uint64_t misses(std::int64_t capacity_elems) const;

  /// Full SimResult for one capacity, equivalent to
  /// simulate_lru_lines(prog, capacity_elems, line_elems).
  SimResult result(std::int64_t capacity_elems) const;
};

}  // namespace sdlo::cachesim
