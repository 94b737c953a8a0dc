#include "analysis/misses_driver.hpp"

#include "analysis/verbs.hpp"
#include "cachesim/parallel_stack.hpp"
#include "ir/printer.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"

namespace sdlo::analysis {

namespace {

const char* json_completeness(Completeness c) {
  return c == Completeness::kTruncated ? "truncated" : "complete";
}

}  // namespace

int MissesOutcome::exit_code() const {
  return to_int(truncated() ? ExitCode::kTruncated : ExitCode::kOk);
}

MissesOutcome run_misses(const ir::Program& prog, const sym::Env& env,
                         const MissesOptions& opts, const Governor* gov) {
  require_cap(opts.capacity, 1);
  MissesOutcome oc;
  const auto an = model::analyze(prog);
  oc.pred = model::predict_misses(an, env, opts.capacity);
  if (opts.simulate) {
    trace::CompiledProgram cp(prog, env);
    oc.sim = cachesim::simulate_sweep_streamed(
        cp, {{opts.capacity, 1}}, nullptr, {}, gov)[0];
    oc.simulated = true;
  }
  return oc;
}

void render_misses_json(const MissesOutcome& oc, std::ostream& os) {
  os << "{\"version\":\"" << kVersionNumber << "\""
     << ",\"capacity\":" << oc.pred.capacity
     << ",\"accesses\":" << oc.pred.total_accesses
     << ",\"predicted_misses\":" << oc.pred.misses << ",\"confidence\":\""
     << model::confidence_name(oc.pred.confidence) << "\"";
  if (oc.simulated) {
    os << ",\"simulated_misses\":" << oc.sim.misses
       << ",\"simulated_accesses\":" << oc.sim.accesses
       << ",\"completeness\":\"" << json_completeness(oc.sim.completeness)
       << "\"";
  }
  os << "}\n";
}

void render_misses_text(const MissesOutcome& oc, std::ostream& os) {
  os << "capacity " << oc.pred.capacity << " elements\n"
     << "accesses  " << with_commas(oc.pred.total_accesses) << "\n"
     << "predicted " << with_commas(oc.pred.misses) << " misses ("
     << format_double(100.0 * oc.pred.miss_ratio(), 3) << "%)\n"
     << "confidence " << model::confidence_name(oc.pred.confidence)
     << (oc.pred.confidence == model::Confidence::kApproximate
             ? " (interpolated partitions; see sdlo lint)"
             : "")
     << "\n";
  if (oc.simulated) {
    os << "simulated "
       << with_commas(static_cast<std::int64_t>(oc.sim.misses))
       << " misses — ";
    if (oc.truncated()) {
      os << "truncated by budget after "
         << with_commas(static_cast<std::int64_t>(oc.sim.accesses))
         << " accesses (exact lower bound; no comparison)\n";
    } else {
      os << (oc.sim.misses == static_cast<std::uint64_t>(oc.pred.misses)
                 ? "exact match"
                 : "MISMATCH")
         << "\n";
    }
  }
}

void render_analyze_json(const ir::Program& prog, std::ostream& os,
                         const Governor* gov) {
  if (gov != nullptr) gov->check("analyze");
  const auto an = model::analyze(prog);
  if (gov != nullptr) gov->check("analyze");
  os << "{\"version\":\"" << kVersionNumber << "\",\"program\":\""
     << json_escape(ir::to_code_string(prog)) << "\",\"rows\":[";
  bool first = true;
  for (const auto& row : model::symbolic_report(an)) {
    os << (first ? "" : ",") << "{\"partition\":\""
       << json_escape(row.description) << "\",\"references\":\""
       << json_escape(sym::to_string(row.count)) << "\",\"distance\":\""
       << (row.infinite ? "inf" : json_escape(sym::to_string(row.total)))
       << "\"}";
    first = false;
  }
  os << "]}\n";
}

}  // namespace sdlo::analysis
