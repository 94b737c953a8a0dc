// Shared driver + renderers for the `misses` and `analyze` verbs.
//
// Historically the miss-prediction report was assembled inline in the CLI.
// The serve daemon (DESIGN.md §16) promises responses *byte-identical* to
// the equivalent CLI invocation — the only maintainable way to keep that
// promise is a single emitter both front ends call, so the logic moved
// here: run_misses() produces the outcome, render_misses_{text,json}()
// produce exactly the bytes `sdlo misses` prints, and render_analyze_json
// is the machine-readable twin of the `analyze` partition table (shared by
// `sdlo analyze --json` and the daemon's analyze verb). The fuzz `serve`
// oracle cross-checks the daemon against these emitters on every generated
// program.
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
