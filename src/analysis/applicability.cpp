#include "analysis/applicability.hpp"

#include <map>
#include <set>

#include "model/distance.hpp"
#include "model/symbolic_sweep.hpp"

namespace sdlo::analysis {

ApplicabilityResult check_applicability(const model::Analysis& an,
                                        const sym::Env* env,
                                        std::int64_t capacity,
                                        const model::SymbolicSweepOptions& sopts,
                                        std::size_t max_union_boxes) {
  const ir::Program& prog = *an.prog;
  ApplicabilityResult out;

  // One entry per access site, in program (trace) order.
  for (ir::NodeId s : prog.statements_in_order()) {
    const ir::Statement& stmt = prog.statement(s);
    for (std::size_t a = 0; a < stmt.accesses.size(); ++a) {
      SiteApplicability site;
      site.site = ir::AccessSite{s, static_cast<int>(a)};
      site.index = model::site_index(prog, site.site);
      site.array = stmt.accesses[a].array;
      site.statement = stmt.label;
      out.sites.push_back(std::move(site));
    }
  }
  const auto site_at = [&](const ir::AccessSite& s) -> SiteApplicability& {
    return out.sites[static_cast<std::size_t>(model::site_index(prog, s))];
  };

  // Symbolic classification, per partition.
  for (const auto& pa : an.parts) {
    if (pa.part.divergence == model::Divergence::kCold) continue;
    SiteApplicability& site = site_at(pa.part.target);
    if (pa.part.divergence == model::Divergence::kSibling) {
      site.sibling_case = true;
    }
    std::set<std::string> coord_syms;
    for (const auto& c : pa.coords) coord_syms.insert(c.first);
    sym::Expr total;
    for (const auto& ab : pa.boxes) {
      bool exact = true;
      total = total + model::symbolic_union(ab.second, an.symtab, &exact,
                                            max_union_boxes);
      if (!exact) {
        site.exact_symbolic = false;
        out.symbolic_exact = false;
      }
    }
    if (!coord_syms.empty()) {
      for (const auto& sym_name : sym::symbols_of(total)) {
        if (coord_syms.count(sym_name) != 0) {
          site.varying = true;
          break;
        }
      }
    }
  }

  if (env == nullptr) return out;
  // Concrete classification, from one evaluation of the model. The sweep
  // is capacity-free: it resolves each partition exactly or not at all
  // (AP105). The prediction queries it at the capacity: an inexact
  // partition whose probed depths straddle the capacity is interpolated
  // (AP103).
  const model::SymbolicSweep sweep = model::symbolic_sweep(an, *env, sopts);
  out.sweep = sweep.confidence;
  for (const auto& pc : sweep.parts) {
    if (pc.exact) continue;
    site_at(an.parts[pc.part_index].part.target).sweep_inexact = true;
  }
  if (capacity > 0) {
    const model::MissPrediction pred =
        model::predict_at(an, sweep, *env, capacity);
    out.numeric = pred.confidence;
    for (const auto& oc : pred.outcomes) {
      if (!oc.approximated || oc.depth_min > capacity ||
          oc.depth_max <= capacity) {
        continue;
      }
      site_at(an.parts[oc.part_index].part.target).interpolated = true;
    }
  }
  return out;
}

}  // namespace sdlo::analysis
