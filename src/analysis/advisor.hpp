// Transformation advisor: legality-checked, cost-ranked recommendations
// (DESIGN.md §15, `sdlo advise`).
//
// The advisor closes the paper's loop: it enumerates candidate
// transformations with the existing ir::interchange / ir::tile_nest
// rewrites, rejects the ones the dependence pass proves illegal, scores
// every survivor with model::predict_misses at the requested capacity
// (falling back to the exact trace-walking sweep engine when the model is
// approximate, Governor-threaded like every other driver), fuses in the
// PS202/PS204 parallelization findings, and returns a report ranked by
// predicted miss count. Every recommendation carries its transformed
// program, so callers (and the fuzz legality oracle) can re-verify both
// semantics and the claimed miss counts independently.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "analysis/reuse.hpp"
#include "ir/program.hpp"
#include "ir/transforms.hpp"
#include "model/analyzer.hpp"
#include "support/governor.hpp"

namespace sdlo::analysis {

/// Tuning knobs of the advisor.
struct AdvisorOptions {
  /// Cache capacity (elements) the candidates are scored at; below 1
  /// advise() throws sdlo::Error.
  std::int64_t capacity = 8192;
  /// Line size (elements) for the false-sharing fusion; < 2 disables it.
  std::int64_t line_elems = 0;
  /// Bands with more loops than this are not permuted (k! candidates).
  std::size_t max_band_loops = 6;
  /// Cap on scored candidates (enumeration stops, report notes the cap).
  std::size_t max_candidates = 64;
  /// Tile sizes tried for single perfect nests (must divide the extent).
  std::vector<std::int64_t> tile_sizes = {4, 8, 16, 32, 64};
  /// Options of the model evaluation every candidate is scored with.
  model::SymbolicSweepOptions predict;
  /// Optional deadline/memory/cancellation governor; polled between
  /// candidates and threaded through the simulation fallback.
  const Governor* governor = nullptr;
};

enum class AdviceKind : std::uint8_t { kInterchange, kTile };

/// One scored, legality-checked recommendation.
struct Advice {
  AdviceKind kind = AdviceKind::kInterchange;
  std::string title;  ///< e.g. "interchange band b1 to loop order (k,i,j)"
  ir::NodeId band = -1;
  std::vector<int> perm;                ///< kInterchange: perm[new] = old
  std::vector<std::string> loop_order;  ///< resulting outer-to-inner vars
  std::vector<ir::TileSpec> specs;      ///< kTile
  std::int64_t tile = 0;                ///< kTile: tile size
  sym::Env env_extra;                   ///< kTile: tile-size bindings
  /// The transformed program (validated); semantics-preserving by the
  /// legality rules of dependence.hpp.
  ir::Program transformed;
  std::int64_t predicted_misses = 0;
  std::vector<std::int64_t> predicted_by_site;
  std::int64_t delta = 0;  ///< predicted - baseline (negative = better)
  double delta_pct = 0.0;
  model::Confidence confidence = model::Confidence::kExact;
  bool simulated = false;  ///< score came from the simulation fallback
};

/// A fused parallelization finding (PS202 padding / PS204 privatization).
struct AdvisorNote {
  std::string id;
  std::string message;
};

/// The ranked advisory report.
struct AdvisorReport {
  std::int64_t capacity = 0;
  std::int64_t baseline_misses = 0;
  model::Confidence baseline_confidence = model::Confidence::kExact;
  bool baseline_simulated = false;
  /// Scored legal candidates, best (fewest predicted misses) first.
  std::vector<Advice> advice;
  std::vector<AdvisorNote> notes;
  std::size_t rejected_illegal = 0;
  std::size_t candidates_scored = 0;
  bool candidates_capped = false;
  DependenceAnalysis dependences;
  ReuseAnalysis reuse;
  /// DP3xx findings with source positions when a SourceMap was given.
  std::vector<Diagnostic> diagnostics;
  /// kTruncated when the governor stopped candidate scoring early.
  Completeness completeness = Completeness::kComplete;
};

/// Runs the advisor on a validated program under concrete bindings `env`.
AdvisorReport advise(const ir::Program& prog, const sym::Env& env,
                     const AdvisorOptions& opts = {},
                     const ir::SourceMap* locs = nullptr);

/// Human-readable report: locality verdicts, dependences, ranked
/// recommendations with miss deltas, parallelization notes.
void render_advice_text(const AdvisorReport& report, std::ostream& os,
                        const std::string& source_name = "",
                        std::size_t top = 0);

/// Machine-readable report, one compact line; top-level keys version/
/// capacity/baseline/advice/notes/rejected_illegal/complete.
void render_advice_json(const AdvisorReport& report, std::ostream& os,
                        std::size_t top = 0);

}  // namespace sdlo::analysis
