// The compile-time cache-miss model (the paper's §5 pipeline, end to end).
//
//   analyze()          partitions every access site, decomposes each reuse
//                      window into segments, and projects per-array boxes —
//                      all symbolically, once per program.
//   predict_misses()   binds a concrete size environment and cache capacity
//                      and produces the predicted miss count (the
//                      "#Predicted misses" column of Tables 2/3). It is a
//                      query on the model's one evaluator, symbolic_sweep()
//                      (symbolic_sweep.hpp): the sweep builds every
//                      partition's exact stack-distance histogram (the
//                      generalization of §5.2's varying-distance
//                      treatment), and the prediction reads it at one
//                      capacity. predict_at() runs the same query on a
//                      sweep the caller already holds.
//   symbolic_report()  renders per-partition symbolic stack distances (the
//                      content of Table 1), for use by the tile-size search
//                      of §6 (including its unknown-loop-bounds mode).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/compiled_eval.hpp"
#include "model/coords.hpp"
#include "model/distance.hpp"
#include "model/partition.hpp"
#include "model/symbolic_sweep.hpp"
#include "model/window.hpp"

namespace sdlo::model {

/// Fully-analyzed reuse partition.
struct PartitionAnalysis {
  Partition part;
  std::vector<Segment> segments;                 ///< empty for kCold
  std::map<std::string, std::vector<Box>> boxes; ///< per array
  /// Internal coordinate symbols (__c_*/__x_*) the boxes depend on, with
  /// the loop variable each belongs to.
  std::vector<std::pair<std::string, std::string>> coords;  // (symbol, var)
};

/// Whole-program analysis result.
struct Analysis {
  const ir::Program* prog = nullptr;
  SymbolTable symtab;
  std::vector<PartitionAnalysis> parts;

  explicit Analysis(const ir::Program& p) : prog(&p), symtab(p) {}
};

/// Runs the full symbolic analysis (program must be validated).
Analysis analyze(const ir::Program& prog);

/// Per-partition outcome of a concrete miss prediction.
struct PartitionOutcome {
  std::size_t part_index = 0;
  std::int64_t count = 0;      ///< accesses in this partition
  /// Extremes of the partition's stack depths: its histogram's first and
  /// last depth, the probed extremes when approximated, kInfDistance for
  /// cold partitions.
  std::int64_t depth_min = 0;
  std::int64_t depth_max = 0;
  std::int64_t misses = 0;
  /// The histogram came from (reduced) coordinate enumeration; a spike
  /// from agreeing probes does not count.
  bool enumerated = false;
  /// The sweep could not make the partition exact, so `misses` is an
  /// estimate: the probe classification when every probed depth lies on
  /// one side of the capacity, a Monte Carlo interpolation when they
  /// straddle it. Never exact.
  bool approximated = false;
};

/// Concrete miss prediction.
struct MissPrediction {
  std::int64_t capacity = 0;
  std::int64_t total_accesses = 0;
  std::int64_t misses = 0;
  /// The sweep's confidence: kApproximate iff some outcome is approximated.
  Confidence confidence = Confidence::kExact;
  /// Misses per access site, indexed like trace::CompiledProgram sites
  /// (statements in program order, accesses within statements).
  std::vector<std::int64_t> misses_by_site;
  std::vector<PartitionOutcome> outcomes;

  double miss_ratio() const {
    return total_accesses == 0
               ? 0.0
               : static_cast<double>(misses) /
                     static_cast<double>(total_accesses);
  }
};

/// Predicts misses of a fully-associative LRU cache of `capacity` (> 0)
/// elements under the concrete environment `env` (binding every user
/// symbol). An access is a miss iff its stack depth exceeds the capacity.
/// Equivalent to predict_at(an, symbolic_sweep(an, env, opts), env,
/// capacity).
MissPrediction predict_misses(const Analysis& an, const sym::Env& env,
                              std::int64_t capacity,
                              const SymbolicSweepOptions& opts = {});

/// The prediction as a query on a complete sweep of `an` under `env`:
/// exact partitions read their histograms at `capacity` (so the total and
/// per-site misses of an exact sweep equal sweep.result_at(capacity)),
/// approximate ones are estimated from their probes. Lets a caller that
/// needs both the curve and a point (lint) evaluate the model once.
MissPrediction predict_at(const Analysis& an, const SymbolicSweep& sweep,
                          const sym::Env& env, std::int64_t capacity);

/// Global access-site index matching trace::CompiledProgram numbering.
std::int32_t site_index(const ir::Program& prog, const ir::AccessSite& site);

/// Symbolic stack-distance row (Table 1 content).
struct SymbolicRow {
  std::size_t part_index = 0;
  std::string description;            ///< partition description
  sym::Expr count;                    ///< #references (user symbols)
  /// Per-array symbolic cost (user symbols; coordinates renamed to their
  /// loop variable, pivots to "x"). Absent for cold partitions.
  std::map<std::string, sym::Expr> per_array;
  sym::Expr total;                    ///< sum over arrays
  bool infinite = false;              ///< cold: stack distance is infinite
  bool exact = true;                  ///< symbolic union was exact
};

/// Produces one row per partition, evaluated at the *generic interior
/// point* (free coordinates kept symbolic).
std::vector<SymbolicRow> symbolic_report(const Analysis& an);

}  // namespace sdlo::model
