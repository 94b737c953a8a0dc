#include "analysis/advisor.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>

#include "analysis/parallel_safety.hpp"
#include "analysis/verbs.hpp"
#include "cachesim/parallel_stack.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"
#include "trace/walker.hpp"

namespace sdlo::analysis {

namespace {

struct Score {
  std::int64_t misses = 0;
  std::vector<std::int64_t> by_site;
  model::Confidence conf = model::Confidence::kExact;
  bool simulated = false;
};

/// The simulation fallback is skipped when the concrete trace exceeds this.
constexpr std::int64_t kMaxSimAccesses = 4'000'000;

/// Scores one program variant: the model first; when it is approximate and
/// the concrete trace is affordable, the exact trace-walking sweep engine
/// at the one capacity (Governor-threaded — a truncated walk is discarded,
/// keeping the model's estimate rather than a prefix count).
Score score_program(const ir::Program& prog, const sym::Env& env,
                    const AdvisorOptions& opts) {
  model::Analysis an = model::analyze(prog);
  model::MissPrediction pred =
      model::predict_misses(an, env, opts.capacity, opts.predict);
  Score s;
  s.misses = pred.misses;
  s.by_site = pred.misses_by_site;
  s.conf = pred.confidence;
  if (pred.confidence == model::Confidence::kApproximate) {
    std::optional<std::int64_t> total =
        sym::try_evaluate(prog.total_accesses(), env);
    if (total && *total <= kMaxSimAccesses) {
      trace::CompiledProgram cp(prog, env);
      const cachesim::SimResult r = cachesim::simulate_sweep_streamed(
          cp, {{opts.capacity, 1}}, nullptr, {}, opts.governor)[0];
      if (r.completeness == Completeness::kComplete) {
        s.misses = static_cast<std::int64_t>(r.misses);
        s.by_site.assign(r.misses_by_site.begin(), r.misses_by_site.end());
        s.simulated = true;
      }
    }
  }
  return s;
}

void finish_advice(Advice& a, const Score& s, std::int64_t baseline) {
  a.predicted_misses = s.misses;
  a.predicted_by_site = s.by_site;
  a.confidence = s.conf;
  a.simulated = s.simulated;
  a.delta = s.misses - baseline;
  a.delta_pct = baseline == 0 ? 0.0
                              : 100.0 * static_cast<double>(a.delta) /
                                    static_cast<double>(baseline);
}

std::string joined(const std::vector<std::string>& vs) {
  std::string out;
  for (const std::string& v : vs) {
    if (!out.empty()) out += ",";
    out += v;
  }
  return out;
}

std::vector<std::string> band_order(const ir::Program& p, ir::NodeId band) {
  std::vector<std::string> out;
  for (const ir::Loop& l : p.band_loops(band)) out.push_back(l.var);
  return out;
}

std::string format_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  return buf;
}

/// "profiler" is the stable schema name of the exact trace-walking engine.
const char* engine_name(bool simulated) {
  return simulated ? "profiler" : "model";
}

}  // namespace

AdvisorReport advise(const ir::Program& prog, const sym::Env& env,
                     const AdvisorOptions& opts, const ir::SourceMap* locs) {
  SDLO_CHECK(prog.validated(), "advise requires validate()");
  require_cap(opts.capacity, 1);
  AdvisorReport report;
  report.capacity = opts.capacity;

  report.dependences = analyze_dependences(prog);
  append_dependence_diagnostics(report.dependences, locs,
                                report.diagnostics);
  sort_diagnostics(report.diagnostics);
  report.reuse = analyze_reuse(prog, &env, opts.line_elems);

  const Score baseline = score_program(prog, env, opts);
  report.baseline_misses = baseline.misses;
  report.baseline_confidence = baseline.conf;
  report.baseline_simulated = baseline.simulated;

  std::set<std::string> taken(prog.variables().begin(),
                              prog.variables().end());

  auto out_of_budget = [&] {
    if (!governor_should_stop(opts.governor)) return false;
    report.completeness = Completeness::kTruncated;
    return true;
  };
  auto capped = [&] {
    if (report.candidates_scored < opts.max_candidates) return false;
    report.candidates_capped = true;
    return true;
  };

  // Interchange candidates: every non-identity permutation of every band
  // with 2..max_band_loops loops, filtered by the direction-vector rule.
  bool stop = false;
  for (const BandSummary& bs : report.dependences.bands) {
    const std::size_t k = bs.loop_vars.size();
    if (k < 2 || k > opts.max_band_loops || stop) continue;
    std::vector<int> perm(k);
    std::iota(perm.begin(), perm.end(), 0);
    while (std::next_permutation(perm.begin(), perm.end())) {
      if (out_of_budget() || capped()) {
        stop = true;
        break;
      }
      if (!interchange_legal(report.dependences, bs.band, perm)) {
        ++report.rejected_illegal;
        continue;
      }
      try {
        Advice a;
        a.kind = AdviceKind::kInterchange;
        a.band = bs.band;
        a.perm = perm;
        a.transformed = ir::interchange(prog, bs.band, perm);
        a.loop_order = band_order(a.transformed, bs.band);
        a.title = "interchange band b" + std::to_string(bs.band) +
                  " to loop order (" + joined(a.loop_order) + ")";
        finish_advice(a, score_program(a.transformed, env, opts),
                      baseline.misses);
        ++report.candidates_scored;
        report.advice.push_back(std::move(a));
      } catch (const Error&) {
        // A candidate the model or transform cannot handle is dropped, not
        // fatal; legality was already established.
      }
    }
  }

  // Tiling candidates: single perfect nests only (tile_nest's contract).
  const std::vector<ir::NodeId>& top = prog.children(ir::Program::kRoot);
  ir::NodeId nest = -1;
  if (top.size() == 1 && !prog.is_statement(top[0]) &&
      !prog.band_loops(top[0]).empty() && prog.children(top[0]).size() == 1 &&
      prog.is_statement(prog.children(top[0])[0]))
    nest = top[0];
  for (std::int64_t tile : nest >= 0 ? opts.tile_sizes
                                     : std::vector<std::int64_t>{}) {
    if (out_of_budget() || capped()) break;
    std::vector<ir::TileSpec> specs;
    std::set<std::string> split;
    sym::Env extra;
    for (const ir::Loop& l : prog.band_loops(nest)) {
      std::optional<std::int64_t> ext = sym::try_evaluate(l.extent, env);
      if (!ext || *ext <= tile || *ext % tile != 0) continue;
      const std::string sym = "T_" + l.var;
      if (taken.count(l.var + "T") || taken.count(l.var + "I") ||
          env.count(sym))
        continue;
      specs.push_back({l.var, sym});
      split.insert(l.var);
      extra[sym] = tile;
    }
    if (specs.empty()) continue;
    if (!tiling_legal(report.dependences, nest, split)) {
      ++report.rejected_illegal;
      continue;
    }
    try {
      ir::GalleryProgram g;
      g.prog = prog;
      Advice a;
      a.kind = AdviceKind::kTile;
      a.band = nest;
      a.specs = specs;
      a.tile = tile;
      a.env_extra = extra;
      a.transformed = ir::tile_nest(g, specs).prog;
      a.loop_order = band_order(a.transformed, nest);
      std::vector<std::string> tiled_vars;
      for (const ir::TileSpec& s : specs) tiled_vars.push_back(s.var);
      a.title = "tile loops (" + joined(tiled_vars) + ") at size " +
                std::to_string(tile);
      sym::Env full = env;
      for (const auto& [k, v] : extra) full[k] = v;
      finish_advice(a, score_program(a.transformed, full, opts),
                    baseline.misses);
      ++report.candidates_scored;
      report.advice.push_back(std::move(a));
    } catch (const Error&) {
    }
  }

  std::stable_sort(report.advice.begin(), report.advice.end(),
                   [](const Advice& a, const Advice& b) {
                     return a.predicted_misses != b.predicted_misses
                                ? a.predicted_misses < b.predicted_misses
                                : a.title < b.title;
                   });

  // Fuse the parallelization findings: false-sharing padding advice and
  // privatization requirements, deduplicated per (loop, array).
  std::set<std::string> seen;
  for (const LoopParallelism& lp :
       analyze_parallel_safety(prog, &env, opts.line_elems)) {
    for (const FalseSharingHazard& h : lp.hazards) {
      if (!seen.insert("202|" + lp.var + "|" + h.array).second) continue;
      report.notes.push_back(
          {kPS202FalseSharing,
           "pad or align array '" + h.array + "': parallelizing loop '" +
               lp.var + "' writes elements only " + std::to_string(h.stride) +
               " apart within " + std::to_string(h.line_elems) +
               "-element lines"});
    }
    if (!lp.doall_safe) continue;
    for (const std::string& a : lp.privatized) {
      if (!seen.insert("204|" + lp.var + "|" + a).second) continue;
      report.notes.push_back(
          {kPS204PrivatizationRequired,
           "privatize array '" + a + "' per thread when parallelizing loop '" +
               lp.var + "'"});
    }
  }
  return report;
}

void render_advice_text(const AdvisorReport& report, std::ostream& os,
                        const std::string& source_name, std::size_t top) {
  os << "advisory report: capacity " << report.capacity << " elements\n";
  os << "baseline: " << report.baseline_misses << " predicted misses ("
     << engine_name(report.baseline_simulated) << ", "
     << model::confidence_name(report.baseline_confidence) << ")\n";

  os << "\nper-site locality (innermost-loop verdict):\n";
  for (const SiteReuse& sr : report.reuse.sites) {
    os << "  " << sr.stmt_label << "[" << sr.site.access << "] " << sr.array
       << (sr.mode == ir::AccessMode::kWrite ? " write" : " read") << ": "
       << locality_name(sr.innermost)
       << (sr.is_group_leader ? "" : " (group reuse from leader)") << "\n";
  }

  if (!report.diagnostics.empty()) {
    os << "\ndependences:\n";
    for (const Diagnostic& d : report.diagnostics)
      os << "  " << to_text(d, source_name) << "\n";
  }

  os << "\nrecommendations:\n";
  if (report.advice.empty()) os << "  (no legal candidate scored)\n";
  std::size_t shown = 0;
  for (const Advice& a : report.advice) {
    if (top && shown == top) break;
    os << "  " << ++shown << ". " << a.title << ": " << a.predicted_misses
       << " predicted misses (" << format_pct(a.delta_pct) << ", "
       << engine_name(a.simulated) << " "
       << model::confidence_name(a.confidence) << ")\n";
  }
  if (report.rejected_illegal)
    os << "  (" << report.rejected_illegal
       << " candidate(s) rejected as illegal by dependence analysis)\n";
  if (report.candidates_capped) os << "  (candidate enumeration capped)\n";
  if (report.completeness == Completeness::kTruncated)
    os << "  (truncated by resource budget)\n";

  if (!report.notes.empty()) {
    os << "\nparallelization notes:\n";
    for (const AdvisorNote& n : report.notes)
      os << "  " << n.id << ": " << n.message << "\n";
  }
}

void render_advice_json(const AdvisorReport& report, std::ostream& os,
                        std::size_t top) {
  os << "{\"version\":\"" << kVersionNumber << "\"";
  os << ",\"capacity\":" << report.capacity;
  os << ",\"complete\":"
     << (report.completeness == Completeness::kComplete ? "true" : "false");
  os << ",\"baseline\":{\"misses\":" << report.baseline_misses
     << ",\"confidence\":\""
     << model::confidence_name(report.baseline_confidence)
     << "\",\"engine\":\"" << engine_name(report.baseline_simulated)
     << "\"}";
  os << ",\"rejected_illegal\":" << report.rejected_illegal;
  os << ",\"advice\":[";
  std::size_t shown = 0;
  for (const Advice& a : report.advice) {
    if (top && shown == top) break;
    if (shown) os << ",";
    ++shown;
    char pct[32];
    std::snprintf(pct, sizeof pct, "%.2f", a.delta_pct);
    os << "{\"kind\":\""
       << (a.kind == AdviceKind::kInterchange ? "interchange" : "tile")
       << "\",\"title\":\"" << json_escape(a.title) << "\",\"band\":"
       << a.band << ",\"order\":[";
    for (std::size_t i = 0; i < a.loop_order.size(); ++i)
      os << (i ? "," : "") << "\"" << json_escape(a.loop_order[i]) << "\"";
    os << "]";
    if (a.kind == AdviceKind::kTile) os << ",\"tile\":" << a.tile;
    os << ",\"predicted_misses\":" << a.predicted_misses
       << ",\"delta\":" << a.delta << ",\"delta_pct\":" << pct
       << ",\"confidence\":\"" << model::confidence_name(a.confidence)
       << "\",\"engine\":\"" << engine_name(a.simulated) << "\"}";
  }
  os << "],\"notes\":[";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    if (i) os << ",";
    os << "{\"id\":\"" << report.notes[i].id << "\",\"message\":\""
       << json_escape(report.notes[i].message) << "\"}";
  }
  os << "]}\n";
}

}  // namespace sdlo::analysis
