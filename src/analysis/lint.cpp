#include "analysis/lint.hpp"

#include <sstream>
#include <string>
#include <utility>

#include "analysis/verbs.hpp"
#include "analysis/verifier.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"

namespace sdlo::analysis {

void append_applicability_diagnostics(const ApplicabilityResult& ap,
                                      const ir::SourceMap* locs,
                                      std::int64_t capacity,
                                      std::vector<Diagnostic>& out) {
  const auto loc_of = [&](const ir::AccessSite& s) {
    return locs != nullptr ? locs->access_loc(s) : SourceLoc{};
  };
  for (const auto& site : ap.sites) {
    const std::string where = site.array + "@" + site.statement;
    if (site.varying) {
      out.push_back(Diagnostic{
          kAP101VaryingDistance, Severity::kNote, loc_of(site.site),
          site.array,
          "stack distance of " + where +
              " varies with the instance; the prediction enumerates "
              "coordinates (§5.2) instead of one closed form"});
    }
    if (!site.exact_symbolic) {
      out.push_back(Diagnostic{
          kAP102InexactUnion, Severity::kWarning, loc_of(site.site),
          site.array,
          "symbolic union of the reuse window of " + where +
              " exceeded the inclusion-exclusion budget; its symbolic "
              "stack distance is an over-approximation"});
    }
    if (site.interpolated) {
      out.push_back(Diagnostic{
          kAP103InterpolatedPrediction, Severity::kWarning, loc_of(site.site),
          site.array,
          "prediction for " + where + " at capacity " +
              std::to_string(capacity) +
              " exceeded the enumeration limit while straddling the "
              "capacity; misses were interpolated statistically"});
    }
    if (site.sweep_inexact) {
      out.push_back(Diagnostic{
          kAP105SweepInexact, Severity::kWarning, loc_of(site.site),
          site.array,
          "analytic capacity sweep for " + where +
              " cannot resolve all partitions exactly under this "
              "environment; 'sdlo sweep --engine symbolic' falls back to "
              "simulation"});
    }
    if (site.sibling_case) {
      out.push_back(Diagnostic{
          kAP104SiblingReuse, Severity::kNote, loc_of(site.site), site.array,
          "reuse of " + where +
              " reaches across sibling subtrees (auxiliary-branch analysis "
              "of Figs. 4-5)"});
    }
  }
}

namespace {

void emit_parallel_diags(const std::vector<LoopParallelism>& loops,
                         const ir::SourceMap* locs,
                         std::vector<Diagnostic>& out) {
  bool any_safe = false;
  for (const auto& lp : loops) {
    const SourceLoc at =
        locs != nullptr ? locs->node_loc(lp.band) : SourceLoc{};
    if (!lp.doall_safe) {
      std::string arrays;
      for (const auto& a : lp.carried) {
        arrays += (arrays.empty() ? "" : ", ") + a;
      }
      out.push_back(Diagnostic{
          kPS201CarriedDependence, Severity::kNote, at, lp.var,
          "loop '" + lp.var + "' carries a cross-iteration dependence "
              "through " + arrays + "; not DOALL-parallelizable"});
    } else {
      any_safe = true;
      if (!lp.privatized.empty()) {
        std::string arrays;
        for (const auto& a : lp.privatized) {
          arrays += (arrays.empty() ? "" : ", ") + a;
        }
        out.push_back(Diagnostic{
            kPS204PrivatizationRequired, Severity::kNote, at, lp.var,
            "DOALL execution of loop '" + lp.var +
                "' requires privatizing kill-first array(s) " + arrays});
      }
      for (const auto& h : lp.hazards) {
        out.push_back(Diagnostic{
            kPS202FalseSharing, Severity::kNote, at, lp.var,
            "adjacent iterations of DOALL loop '" + lp.var + "' write '" +
                h.array + "' only " + std::to_string(h.stride) +
                " element(s) apart (< line size " +
                std::to_string(h.line_elems) +
                "); partitioning it false-shares cache lines"});
      }
    }
  }
  if (!loops.empty() && !any_safe) {
    out.push_back(Diagnostic{
        kPS203NoParallelLoop, Severity::kWarning, SourceLoc{}, "program",
        "no band loop is DOALL-safe; the §7 synchronization-free SMP "
        "estimate does not apply to this program"});
  }
}

// Maps `violations` (what prog.try_validate() returned) and the size
// checks to diagnostics; a program in the class, and so validated, then
// runs the model and parallel-safety passes.
LintReport lint_checked(const ir::Program& prog,
                        const std::vector<ir::ClassViolation>& violations,
                        const ir::SourceMap* locs, const LintOptions& opts) {
  LintReport rep;
  const sym::Env* env = opts.env.empty() ? nullptr : &opts.env;
  if (!verify_program(prog, violations, locs, env, rep.diagnostics)) {
    sort_diagnostics(rep.diagnostics);
    return rep;
  }
  rep.verified = true;
  const model::Analysis an = model::analyze(prog);
  rep.applicability =
      check_applicability(an, env, opts.capacity, opts.predict);
  append_applicability_diagnostics(*rep.applicability, locs, opts.capacity,
                                   rep.diagnostics);
  rep.loops = analyze_parallel_safety(prog, env, opts.line_elems);
  emit_parallel_diags(rep.loops, locs, rep.diagnostics);
  sort_diagnostics(rep.diagnostics);
  return rep;
}

}  // namespace

LintReport lint_program(const ir::Program& prog, const ir::SourceMap* locs,
                        const LintOptions& opts) {
  require_cap(opts.capacity, 0);  // a usage error, before any diagnostic
  if (prog.validated()) return lint_checked(prog, {}, locs, opts);
  ir::Program checked = prog;
  const std::vector<ir::ClassViolation> violations = checked.try_validate();
  return lint_checked(checked, violations, locs, opts);
}

LintReport lint_text(const std::string& text, const LintOptions& opts) {
  require_cap(opts.capacity, 0);  // a usage error, before any diagnostic
  ir::ParsedProgram parsed;
  try {
    parsed = ir::parse_program_located(text, /*validate=*/false);
  } catch (const ParseError& e) {
    LintReport rep;
    // The thrown message embeds "line L:C: "; the diagnostic carries the
    // location structurally, so drop the textual prefix.
    std::string msg = e.what();
    if (e.loc.known() && msg.rfind("line ", 0) == 0) {
      const auto colon = msg.find(": ");
      if (colon != std::string::npos) msg = msg.substr(colon + 2);
    }
    rep.diagnostics.push_back(Diagnostic{kWF000ParseError, Severity::kError,
                                         e.loc, "", std::move(msg)});
    return rep;
  }
  const std::vector<ir::ClassViolation> violations =
      parsed.prog.try_validate();
  return lint_checked(parsed.prog, violations, &parsed.locs, opts);
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

void render_text(const LintReport& rep, std::ostream& os,
                 const std::string& source_name) {
  for (const auto& d : rep.diagnostics) {
    os << to_text(d, source_name) << "\n";
  }
  if (rep.verified && rep.applicability.has_value()) {
    const auto& ap = *rep.applicability;
    os << "model: symbolic distances "
       << (ap.symbolic_exact ? "exact" : "over-approximated")
       << "; prediction confidence " << model::confidence_name(ap.numeric)
       << "\n";
    os << "parallel:";
    if (rep.loops.empty()) {
      os << " (no loops)";
    }
    for (const auto& lp : rep.loops) {
      os << " " << lp.var << "=";
      if (!lp.doall_safe) {
        os << "serial";
      } else if (!lp.privatized.empty()) {
        os << "doall+private";
      } else {
        os << "doall";
      }
    }
    os << "\n";
  }
  os << rep.num_errors() << " error(s), " << rep.num_warnings()
     << " warning(s), " << rep.num_notes() << " note(s)\n";
}

namespace {

const char* bool_str(bool b) { return b ? "true" : "false"; }

}  // namespace

void render_json(const LintReport& rep, std::ostream& os) {
  os << "{\"version\":\"" << kVersionNumber << "\"";
  os << ",\"ok\":" << bool_str(rep.ok());
  os << ",\"clean\":" << bool_str(rep.clean());
  os << ",\"counts\":{\"errors\":" << rep.num_errors()
     << ",\"warnings\":" << rep.num_warnings()
     << ",\"notes\":" << rep.num_notes() << "}";
  os << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < rep.diagnostics.size(); ++i) {
    const Diagnostic& d = rep.diagnostics[i];
    os << (i == 0 ? "" : ",") << "{\"id\":\"" << d.id
       << "\",\"severity\":\"" << severity_name(d.severity)
       << "\",\"line\":" << d.loc.line << ",\"column\":" << d.loc.column
       << ",\"object\":\"" << json_escape(d.object) << "\",\"message\":\""
       << json_escape(d.message) << "\"}";
  }
  os << "]";
  if (rep.verified && rep.applicability.has_value()) {
    const auto& ap = *rep.applicability;
    os << ",\"model\":{\"symbolic_exact\":" << bool_str(ap.symbolic_exact)
       << ",\"confidence\":\"" << model::confidence_name(ap.numeric)
       << "\",\"sites\":[";
    for (std::size_t i = 0; i < ap.sites.size(); ++i) {
      const auto& s = ap.sites[i];
      os << (i == 0 ? "" : ",") << "{\"index\":" << s.index
         << ",\"statement\":\"" << json_escape(s.statement)
         << "\",\"array\":\"" << json_escape(s.array)
         << "\",\"varying\":" << bool_str(s.varying)
         << ",\"exact_symbolic\":" << bool_str(s.exact_symbolic)
         << ",\"sibling\":" << bool_str(s.sibling_case)
         << ",\"interpolated\":" << bool_str(s.interpolated) << "}";
    }
    os << "]},\"parallel\":{\"loops\":[";
    for (std::size_t i = 0; i < rep.loops.size(); ++i) {
      const auto& lp = rep.loops[i];
      os << (i == 0 ? "" : ",") << "{\"var\":\"" << json_escape(lp.var)
         << "\",\"top_level\":" << bool_str(lp.top_level)
         << ",\"doall_safe\":" << bool_str(lp.doall_safe)
         << ",\"carried\":[";
      for (std::size_t k = 0; k < lp.carried.size(); ++k) {
        os << (k == 0 ? "" : ",") << "\"" << json_escape(lp.carried[k])
           << "\"";
      }
      os << "],\"privatized\":[";
      for (std::size_t k = 0; k < lp.privatized.size(); ++k) {
        os << (k == 0 ? "" : ",") << "\"" << json_escape(lp.privatized[k])
           << "\"";
      }
      os << "],\"false_sharing\":[";
      for (std::size_t k = 0; k < lp.hazards.size(); ++k) {
        const auto& h = lp.hazards[k];
        os << (k == 0 ? "" : ",") << "{\"array\":\""
           << json_escape(h.array) << "\",\"stride\":" << h.stride
           << ",\"line\":" << h.line_elems << "}";
      }
      os << "]}";
    }
    os << "]}";
  } else {
    os << ",\"model\":null,\"parallel\":null";
  }
  os << "}\n";
}

}  // namespace sdlo::analysis
