// Pass 2: model-applicability checker (DESIGN.md §10, IDs AP101–AP104).
//
// The §4–§5 distance algebra is exact on the constrained class, but three
// mechanisms degrade a *particular* prediction from closed-form exact to
// approximate, and one (the auxiliary-branch sibling analysis of Figs. 4–5)
// is exact yet worth surfacing because it is the imperfect-nest case the
// paper adds over classic perfect-nest models. This pass classifies every
// access site:
//
//   * varying      — the partition's stack distance depends on the instance
//                    coordinates (§5.2), so a numeric prediction must
//                    enumerate coordinates rather than evaluate one closed
//                    form (AP101, note);
//   * inexact      — the symbolic union of window boxes exceeded the
//                    inclusion–exclusion budget and fell back to an
//                    over-approximating sum, so Table-1 style symbolic rows
//                    for this site are upper bounds (AP102, warning);
//   * interpolated — under the supplied environment the analytic sweep
//                    cannot resolve a partition of the site exactly and
//                    its probed depth range straddles the supplied
//                    capacity, so the prediction at that capacity
//                    interpolated statistically (AP103, warning);
//   * sibling      — reuse crosses sibling subtrees (auxiliary branches of
//                    Figs. 4–5; AP104, note);
//   * sweep-inexact — under the supplied environment the analytic capacity
//                    sweep (model/symbolic_sweep.hpp) cannot resolve the
//                    site's partitions exactly, so `sdlo sweep --engine
//                    symbolic` falls back to simulation for this program
//                    (AP105, warning).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "ir/program.hpp"
#include "model/analyzer.hpp"
#include "symbolic/expr.hpp"

namespace sdlo::analysis {

/// Classification of one access site (aggregated over its partitions).
struct SiteApplicability {
  ir::AccessSite site;
  std::int32_t index = 0;  ///< global site index (model::site_index)
  std::string array;
  std::string statement;   ///< enclosing statement label
  bool varying = false;
  bool exact_symbolic = true;   ///< false when any union was inexact
  bool sibling_case = false;
  bool interpolated = false;    ///< only ever true when env+capacity given
  bool sweep_inexact = false;   ///< only ever true when an env was given
};

/// Whole-program applicability verdict.
struct ApplicabilityResult {
  std::vector<SiteApplicability> sites;  ///< program order
  /// True when every site's symbolic stack distance is exact (no AP102).
  bool symbolic_exact = true;
  /// Numeric confidence under the supplied env/capacity; kExact when no
  /// env/capacity was supplied (nothing was interpolated).
  model::Confidence numeric = model::Confidence::kExact;
  /// Confidence of the analytic capacity sweep under the supplied env;
  /// kExact when no env was supplied. kApproximate means `sdlo sweep
  /// --engine symbolic` falls back to simulation for this program.
  model::Confidence sweep = model::Confidence::kExact;
};

/// Classifies every access site of the analyzed program. When `env` is
/// non-null, additionally evaluates the analytic capacity sweep once, under
/// `sopts`, to detect sweep-inexact sites (AP105); when `capacity` is also
/// positive, queries that sweep at the capacity (model::predict_at) to
/// detect interpolation fallbacks (AP103).
/// `max_union_boxes` bounds the inclusion–exclusion expansion of
/// model::symbolic_union (2^boxes intersections); windows that exceed it
/// are classified inexact (AP102).
ApplicabilityResult check_applicability(
    const model::Analysis& an, const sym::Env* env, std::int64_t capacity,
    const model::SymbolicSweepOptions& sopts = {},
    std::size_t max_union_boxes = 12);

}  // namespace sdlo::analysis
