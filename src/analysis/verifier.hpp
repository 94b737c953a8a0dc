// Pass 1: well-formedness verifier (DESIGN.md §10, IDs WF001–WF009).
//
// ir::Program::try_validate() is the one check of the constrained-class
// rules; it collects every violation. The verifier maps each to its
// WF001–WF006 diagnostic with the source position of the node or access
// site at fault, so a lint run reports every violation at once. When an
// environment is supplied it additionally checks that every extent symbol
// is bound (WF008), that extents are positive (WF009), and that array
// footprints and the total access count fit in int64 using
// support/checked_math.hpp (WF007) — also on out-of-class programs.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "ir/parser.hpp"
#include "ir/program.hpp"
#include "symbolic/expr.hpp"

namespace sdlo::analysis {

/// Appends the diagnostics of `violations` (what prog.try_validate()
/// returned) and, when `env` is non-null, of the concrete-size checks
/// WF007–WF009 to `out`. `locs` (may be null) supplies source positions.
///
/// Returns true when no error-severity diagnostic was appended; then the
/// program is in the constrained class and sizes fit under `env`.
bool verify_program(const ir::Program& prog,
                    const std::vector<ir::ClassViolation>& violations,
                    const ir::SourceMap* locs, const sym::Env* env,
                    std::vector<Diagnostic>& out);

}  // namespace sdlo::analysis
