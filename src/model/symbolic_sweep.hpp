// The model's one evaluator: the fully symbolic capacity sweep.
//
// From the symbolic analysis alone (analyzer.hpp) it builds, per reuse
// partition, the exact *stack-distance histogram* — how many of the
// partition's accesses have each stack depth — and aggregates them into the
// same ProfileResult shape the trace profiler produces. The full
// miss-vs-capacity curve then falls out analytically:
//
//   misses(C) = cold + sum_{depth > C} histogram[depth]
//
// for every capacity C at once, with per-site attribution, with no trace
// walk. On model-exact programs the histogram is bit-identical to
// profile_stack_distances() (the fuzz oracle battery enforces this), so the
// curve — including every crossing point, the capacities where accesses
// flip from miss to hit — matches simulate_sweep_streamed() exactly in
// O(model) instead of O(trace) time. This is the shape of Zhu/Ding's fully
// symbolic locality analysis and Gysi et al.'s analytical cache model, grown
// out of the paper's §5 partition machinery.
//
// Every numeric model query reads this sweep: `sdlo sweep --engine
// symbolic` prints its curve, and predict_misses() / predict_at()
// (analyzer.hpp) answer one capacity from it — the "#Predicted misses"
// column of Tables 2/3, `sdlo misses`, advisor scoring, lint and the §7 SMP
// estimate.
//
// Exactness doctrine: a partition's histogram is exact when its dependent
// coordinates can be exhaustively enumerated within `enum_limit`, after
// first dropping every *translation-invariant* axis (bound_partition.hpp:
// shifting the axis provably translates each array's whole box union, so
// the depth cannot change — the enumeration collapses by that axis's full
// extent, exactly). Partitions that still exceed the limit are probed at
// their corners, center and 16 random points; a
// constant-depth probe profile yields an exact spike, anything else marks
// the partition — and the sweep — Confidence::kApproximate and keeps only
// the probe extremes. Such a partition never contributes to the histogram:
// the sweep driver falls back to simulation rather than report an inexact
// curve, and a capacity query estimates it from the probes.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cachesim/results.hpp"
#include "support/governor.hpp"
#include "symbolic/expr.hpp"

namespace sdlo::model {

struct Analysis;  // analyzer.hpp

/// Confidence verdict of the sweep and of every query on it: kExact when
/// every partition was resolved by closed form or (reduced) exhaustive
/// enumeration, kApproximate when at least one could not be made exact (the
/// analysis passes of analysis/applicability.hpp report *which*).
enum class Confidence : std::uint8_t { kExact, kApproximate };

/// "exact" / "approximate".
const char* confidence_name(Confidence c);

/// Tuning knobs of the model's one evaluator; every caller that evaluates
/// the model (the sweep driver, predict_misses, lint, the advisor, the SMP
/// estimate) takes this struct, so they agree on which programs are
/// model-exact by construction.
struct SymbolicSweepOptions {
  /// Maximum number of dependent-coordinate combinations enumerated
  /// exactly (after the invariance reduction).
  std::int64_t enum_limit = std::int64_t{1} << 21;
};

/// One partition's slice of the analytic curve.
struct PartitionCurve {
  std::size_t part_index = 0;
  std::int32_t site = 0;       ///< target access site (CompiledProgram id)
  std::int64_t count = 0;      ///< accesses in this partition
  bool cold = false;           ///< infinite distance: always misses
  bool exact = true;           ///< histogram below is the exact histogram
  /// Resolved by the probe test rather than by enumeration. When `exact`,
  /// every probe agreed and depth_counts is that one spike; otherwise the
  /// partition has no histogram and only the probe fields below describe
  /// it.
  bool probed = false;
  /// Coordinate axes dropped by the translation-invariance reduction.
  std::size_t axes_dropped = 0;
  /// Dependent-coordinate combinations actually enumerated (0 when the
  /// partition was cold, dead, or resolved by a constant-depth probe).
  std::int64_t combos_enumerated = 0;
  /// depth -> number of accesses at that depth (empty when cold or
  /// inexact; cold accesses are carried by `cold` + `count`).
  std::map<std::int64_t, std::uint64_t> depth_counts;
  /// Smallest and largest probed depth (probed partitions only).
  std::int64_t probe_min = 0;
  std::int64_t probe_max = 0;
  /// State of the partition's probe random stream after the probes: a
  /// capacity query's Monte Carlo estimate continues it with
  /// SplitMix64(trial_seed) (probed partitions only).
  std::uint64_t trial_seed = 0;
};

/// The analytic sweep: per-partition curves plus their aggregation in the
/// exact shape of cachesim::ProfileResult.
struct SymbolicSweep {
  std::int64_t total_accesses = 0;
  /// Accesses covered by the partitions evaluated so far; equals
  /// total_accesses when the sweep ran to completion.
  std::int64_t accounted_accesses = 0;
  Confidence confidence = Confidence::kExact;
  /// kTruncated when the Governor stopped the evaluation early; completed
  /// partitions are kept, so the aggregate is a best-so-far lower bound.
  Completeness completeness = Completeness::kComplete;
  std::vector<PartitionCurve> parts;

  // Aggregates over the exact partitions (element granularity; depths
  // count distinct elements).
  std::uint64_t cold = 0;
  std::map<std::int64_t, std::uint64_t> histogram;
  std::vector<std::uint64_t> cold_by_site;
  std::vector<std::map<std::int64_t, std::uint64_t>> histogram_by_site;
  /// The memory-budget claim covering the histogram entries above (none
  /// without a governed budget), returned when this result is dropped.
  MemoryReservation charge;

  /// Repackages the aggregates as a ProfileResult (line_elems = 1), the
  /// same shape profile_stack_distances() returns — and bit-identical to
  /// it when confidence is kExact and completeness kComplete.
  cachesim::ProfileResult profile() const;

  /// Misses of a fully-associative LRU cache of `capacity` elements.
  std::uint64_t misses_at(std::int64_t capacity) const;

  /// Full SimResult at one capacity (per-site attribution included),
  /// equivalent to simulate_lru(prog, capacity).
  cachesim::SimResult result_at(std::int64_t capacity) const;

  /// The capacities where the curve changes: the sorted distinct finite
  /// depths. misses_at(c) is constant between consecutive crossing points
  /// and drops exactly at each (an access of depth d hits iff capacity
  /// >= d).
  std::vector<std::int64_t> crossing_points() const;
};

/// Evaluates the analytic sweep of `an` under the concrete environment
/// `env` (binding every user symbol). `gov`, when non-null, governs the
/// evaluation: the loop polls between partitions and every
/// `gov->poll_interval` coordinate combinations, and charges its histogram
/// entries (the in-flight partition's and the kept ones) to `gov->memory`
/// in blocks before it makes them; the result's `charge` keeps the blocks.
/// On expiry, or when the budget denies a block, the in-flight partition
/// is discarded and the sweep returns the completed partitions marked
/// kTruncated.
SymbolicSweep symbolic_sweep(const Analysis& an, const sym::Env& env,
                             const SymbolicSweepOptions& opts = {},
                             const Governor* gov = nullptr);

}  // namespace sdlo::model
