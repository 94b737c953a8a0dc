// Engine selection and fallback policy for the `sdlo sweep` verb — the one
// sweep driver behind the CLI and the serve daemon.
//
// Two engines answer the miss-vs-capacity question:
//
//   simulated  — trace-walking: the streamed marker-stack sweep
//                (cachesim::simulate_sweep_streamed), O(trace); one chunk
//                by default; with `threads` > 1, one time chunk per
//                thread, each a pool task walking its own group range,
//                all merged on this thread after a barrier; optionally
//                teeing the trace to a spool on one more walk;
//   symbolic   — analytic: model::symbolic_sweep evaluates the partition
//                machinery's stack-distance histogram, O(model), no trace
//                walk — but only *exact* on the model-exact subset.
//
// A request that names no engine is planned from its size: the model
// counts it first when the line is one element, no spool is asked for and
// the trace holds at least 2^20 accesses; any other request walks. Below
// that size the walk is faster than the model. A planned request always
// gets the walk's document ("engine":"simulated"): the model answers it
// only when its counts are the walk's, that is exact, enumerated (no
// partition's depth sampled by probes) and complete, and otherwise the
// walk runs as if the model had not been asked. The outcome's
// `model_counted` says which one counted, and the text table prints it.
//
// run_sweep() encodes the trust policy the oracle battery underwrites for
// --engine symbolic: the model answers only when its Confidence verdict is
// kExact, no partition's depth was decided by probes rather than
// enumerated, and the request is at element granularity (the analytic
// model has no line dimension); anything weaker falls back to simulation,
// and the outcome records which engine actually answered plus why the
// fallback happened, so scripts reading --json can detect a silent
// fallback (the AP105 diagnostic of `sdlo lint` names the offending
// sites). A Governor truncation inside the named engine is NOT a fallback
// — re-running the walk would blow the same deadline or budget — and
// surfaces instead as a best-so-far partial curve marked truncated (exit
// code 2).
//
// A spool (`spool_path`) is the run-compressed trace (SDLOSPL2) written by
// the simulated engine's tee walk, which runs on the calling thread beside
// the chunk walks. The file survives only a complete run: truncation
// leaves the writer unfinished so its temp file is discarded, and any
// failure after the finish is unwound by an RAII guard — no half-written
// spool is ever left behind.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cachesim/results.hpp"
#include "model/analyzer.hpp"
#include "model/symbolic_sweep.hpp"
#include "support/governor.hpp"

namespace sdlo::analysis {

/// Which engine the caller asked for.
enum class SweepEngine : std::uint8_t { kSimulate, kSymbolic };

/// Parses "simulate"/"simulated"/"symbolic" (throws sdlo::Error otherwise).
SweepEngine parse_sweep_engine(const std::string& name);

struct SweepDriverOptions {
  /// The engine to run; absent plans one from the request's size (above).
  std::optional<SweepEngine> engine;
  /// Line size in elements (power of two). The symbolic engine only
  /// answers line_elems == 1 (the paper's element model).
  std::int64_t line_elems = 1;
  /// Worker threads of the simulated engine: > 1 profiles that many time
  /// chunks on a pool (bit-identical to one thread).
  int threads = 1;
  /// When non-empty, the simulated walk tees its trace to this spool file.
  /// Only the simulated engine walks the trace, so a spool with
  /// SweepEngine::kSymbolic is a usage error; a planned sweep with a
  /// spool walks.
  std::string spool_path;
  model::SymbolicSweepOptions symbolic;
};

/// What a sweep produced, annotated with which engine produced it.
struct SweepOutcome {
  /// "symbolic" or "simulated" — the engine the document names: under
  /// --engine symbolic the one that actually answered (the walk on a
  /// fallback); for a planned request always "simulated", the walk's
  /// counts, which the model may have counted (`model_counted`).
  std::string engine = "simulated";
  /// True when a planned request's counts came from the exact model, with
  /// no trace walk. Only the text table prints it.
  bool model_counted = false;
  bool fell_back = false;
  std::string fallback_reason;  ///< empty unless fell_back
  /// Confidence of the symbolic attempt (kExact when it answered or was
  /// never tried).
  model::Confidence confidence = model::Confidence::kExact;
  Completeness completeness = Completeness::kComplete;
  std::uint64_t accesses = 0;
  std::int64_t line_elems = 1;
  /// The power-of-two capacity ladder, one row per capacity.
  std::vector<std::int64_t> capacities;
  std::vector<cachesim::SimResult> rows;
  /// Capacities where the analytic curve changes (symbolic engine only).
  std::vector<std::int64_t> crossings;
  /// The kept spool file and its size; the path is empty when no spool was
  /// requested or the run did not finish one.
  std::string spool_path;
  std::uint64_t spool_bytes = 0;

  bool truncated() const {
    return completeness == Completeness::kTruncated;
  }
  /// 2 (ExitCode::kTruncated) for a partial curve, else 0.
  int exit_code() const;
};

/// The sweep verb's power-of-two capacity ladder: line, 2*line, ... up to
/// twice the address space (so the last row is always fully resident).
/// `line` must be positive.
std::vector<std::int64_t> sweep_ladder(std::int64_t line,
                                       std::uint64_t space);

/// Runs the requested (or planned) engine with the fallback policy above.
/// `gov` governs whichever engine runs (the symbolic evaluation loop polls
/// it exactly like the trace walk does, and charges its histograms to the
/// memory budget). Throws sdlo::Error when line_elems is not a
/// positive power of two, or when a spool is requested with the symbolic
/// engine.
SweepOutcome run_sweep(const ir::Program& prog, const sym::Env& env,
                       const SweepDriverOptions& opts = {},
                       const Governor* gov = nullptr);

/// Renders the outcome as the human table `sdlo sweep` prints, with one
/// column per site when `sites` is set.
void render_sweep_text(const SweepOutcome& oc, std::ostream& os, bool sites);

/// Renders the stable JSON schema:
///   {"engine":..., "fell_back":..., "confidence":..., "line_elems":...,
///    "accesses":..., "completeness":..., "rows":[{"capacity":...,
///    "misses":...[, "misses_by_site":[...]]}]}
/// plus "fallback_reason" when fell_back, "crossings" for the symbolic
/// engine and "spool":{"path":...,"bytes":...} when a spool was kept;
/// "misses_by_site" when `sites` is set.
void render_sweep_json(const SweepOutcome& oc, std::ostream& os, bool sites);

}  // namespace sdlo::analysis
