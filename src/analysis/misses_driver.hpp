// Driver + renderers of the `misses` verb, and the JSON report of the
// `analyze` verb: run_misses() produces the outcome and
// render_misses_{text,json}() the exact bytes `sdlo misses` prints.
// analysis::run_verb (analysis/verbs.hpp) calls them for both the CLI and
// the serve daemon.
#pragma once

#include <cstdint>
#include <ostream>

#include "cachesim/results.hpp"
#include "ir/program.hpp"
#include "model/analyzer.hpp"
#include "support/governor.hpp"
#include "trace/walker.hpp"

namespace sdlo::analysis {

struct MissesOptions {
  /// Cache capacity in elements; below 1 run_misses throws sdlo::Error.
  std::int64_t capacity = 8192;
  /// Cross-check the model against the sweep-engine simulator.
  bool simulate = false;
};

struct MissesOutcome {
  model::MissPrediction pred;
  bool simulated = false;
  cachesim::SimResult sim;  ///< valid when simulated

  bool truncated() const {
    return simulated && sim.completeness == Completeness::kTruncated;
  }
  /// 2 (ExitCode::kTruncated) when the simulation was truncated, else 0.
  int exit_code() const;
};

/// Predicts misses (and optionally simulates) under `env` at the given
/// capacity. `gov` governs the simulation exactly as in `sdlo misses`.
MissesOutcome run_misses(const ir::Program& prog, const sym::Env& env,
                         const MissesOptions& opts = {},
                         const Governor* gov = nullptr);

/// The human-readable report `sdlo misses` prints.
void render_misses_text(const MissesOutcome& oc, std::ostream& os);

/// The stable JSON document `sdlo misses --json` prints (keys version/
/// capacity/accesses/predicted_misses/confidence, plus simulated_misses/
/// simulated_accesses/completeness under --simulate).
void render_misses_json(const MissesOutcome& oc, std::ostream& os);

/// Machine-readable `analyze` report: the symbolic per-partition table as
///   {"version":..., "program":..., "rows":[{"partition":...,
///    "references":..., "distance":...|"inf"}]}
/// `gov` is honored through the throwing path (analyze has no meaningful
/// partial result), mirroring the CLI.
void render_analyze_json(const ir::Program& prog, std::ostream& os,
                         const Governor* gov = nullptr);

}  // namespace sdlo::analysis
