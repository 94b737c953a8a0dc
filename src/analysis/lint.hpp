// Lint driver: runs the verifier, applicability and parallel-safety passes
// over one program and renders the combined report (DESIGN.md §10).
//
// The pass pipeline is staged: the well-formedness verifier always runs;
// the model passes require a program in the constrained class, so they run
// only when the verifier reports no errors. `sdlo lint` is a thin wrapper
// over lint_text + one of the renderers.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/applicability.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/parallel_safety.hpp"
#include "ir/parser.hpp"
#include "ir/program.hpp"
#include "model/analyzer.hpp"
#include "symbolic/expr.hpp"

namespace sdlo::analysis {

struct LintOptions {
  /// Concrete sizes. Empty → the env-dependent checks (WF007–WF009,
  /// AP103, PS202) are skipped.
  sym::Env env;
  /// Cache capacity in elements for the interpolation check (AP103);
  /// 0 → no concrete prediction is run; negative throws sdlo::Error.
  std::int64_t capacity = 0;
  /// Cache line size in elements for false-sharing analysis (PS202);
  /// 0 → skipped.
  std::int64_t line_elems = 0;
  /// Options of the model's one evaluation (AP103 and AP105 share it).
  model::SymbolicSweepOptions predict;
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;  ///< sorted (sort_diagnostics order)
  /// True when the verifier found no errors and the model passes ran.
  bool verified = false;
  std::optional<ApplicabilityResult> applicability;
  std::vector<LoopParallelism> loops;

  std::size_t num_errors() const {
    return count_severity(diagnostics, Severity::kError);
  }
  std::size_t num_warnings() const {
    return count_severity(diagnostics, Severity::kWarning);
  }
  std::size_t num_notes() const {
    return count_severity(diagnostics, Severity::kNote);
  }
  /// In the constrained class: model results are meaningful.
  bool ok() const { return num_errors() == 0; }
  /// Fully clean: the model applies exactly as stated (notes permitted).
  bool clean() const { return ok() && num_warnings() == 0; }
};

/// Appends the AP101–AP104 diagnostics for a classified program to `out`.
/// Exposed separately from lint_program so callers (and tests) can emit
/// diagnostics from an ApplicabilityResult they obtained or adjusted
/// themselves; `locs` may be null, `capacity` only labels AP103 messages.
void append_applicability_diagnostics(const ApplicabilityResult& ap,
                                      const ir::SourceMap* locs,
                                      std::int64_t capacity,
                                      std::vector<Diagnostic>& out);

/// Lints an IR tree (validated or not). `locs` may be null.
LintReport lint_program(const ir::Program& prog, const ir::SourceMap* locs,
                        const LintOptions& opts = {});

/// Parses and lints program text; parse failures become a WF000 error
/// diagnostic rather than a thrown ParseError.
LintReport lint_text(const std::string& text, const LintOptions& opts = {});

/// Compiler-style text report (diagnostic lines, pass summaries, totals).
void render_text(const LintReport& rep, std::ostream& os,
                 const std::string& source_name = "");

/// Machine-readable report, one compact line. The schema is stable and
/// documented in the README: top-level keys ok/clean/counts/diagnostics/
/// model/parallel, with model and parallel null when the verifier failed.
void render_json(const LintReport& rep, std::ostream& os);

}  // namespace sdlo::analysis
