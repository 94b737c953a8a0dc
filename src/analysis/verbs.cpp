#include "analysis/verbs.hpp"

#include <bit>
#include <iterator>

#include "analysis/advisor.hpp"
#include "analysis/lint.hpp"
#include "analysis/misses_driver.hpp"
#include "analysis/sweep_driver.hpp"
#include "analysis/verifier.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "model/analyzer.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace sdlo::analysis {

namespace {

/// Indexed by Verb.
constexpr const char* kVerbNames[] = {"analyze", "misses", "sweep", "lint",
                                      "advise"};

/// Worker threads a sweep may ask for: a typo must neither run serial
/// silently nor start an unbounded number of OS threads.
constexpr std::int64_t kMaxThreads = 256;

void render_analyze_text(const ir::Program& prog, const Governor* gov,
                         std::ostream& os) {
  // No partial result: a tripped governor throws BudgetExceeded.
  if (gov != nullptr) gov->check("analyze");
  os << ir::to_code_string(prog) << "\n";
  const auto an = model::analyze(prog);
  if (gov != nullptr) gov->check("analyze");
  TextTable t({"Partition", "#References", "Stack distance"});
  for (const auto& row : model::symbolic_report(an)) {
    t.add_row({row.description, sym::to_string(row.count),
               row.infinite ? "inf" : sym::to_string(row.total)});
  }
  t.print(os);
}

/// Throws the first error of the verifier's environment checks: the
/// drivers assume every extent is bound and positive and every size fits
/// in int64. A non-positive extent is only lint's warning (the program is
/// well-formed), but no driver can count accesses of a loop that never
/// runs.
void require_env(const ir::Program& prog, const sym::Env& env) {
  std::vector<Diagnostic> diags;
  (void)verify_program(prog, {}, nullptr, &env, diags);
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError || d.id == kWF009NonPositiveExtent) {
      throw Error(d.id + ": " + d.message);
    }
  }
}

}  // namespace

const char* verb_name(Verb v) { return kVerbNames[static_cast<int>(v)]; }

std::optional<Verb> parse_verb(const std::string& name) {
  for (std::uint8_t v = 0; v < std::size(kVerbNames); ++v) {
    if (name == kVerbNames[v]) return static_cast<Verb>(v);
  }
  return std::nullopt;
}

void require_cap(std::int64_t cap, std::int64_t min) {
  if (cap >= min) return;
  throw Error("--cap must be at least " + std::to_string(min) +
              (min == 0 ? " (0 skips the capacity checks; got "
                        : " element (got ") +
              std::to_string(cap) + ")");
}

void require_line(std::int64_t line) {
  if (line >= 1 && std::has_single_bit(static_cast<std::uint64_t>(line))) {
    return;
  }
  throw Error("--line must be a positive power of two elements (got " +
              std::to_string(line) + ")");
}

VerbRequest resolve(VerbRequest req) {
  // A present knob must be valid; an absent cap or sweep line takes the
  // driver's default. An absent lint or advise line stays absent: no line
  // size means no false-sharing check, and no valid size says that.
  const auto cap_or = [&](std::int64_t def, std::int64_t min) {
    require_cap(req.cap.value_or(def), min);
    return req.cap.value_or(def);
  };
  if (req.line && req.verb != Verb::kAnalyze && req.verb != Verb::kMisses) {
    require_line(*req.line);
  }
  switch (req.verb) {
    case Verb::kAnalyze:
      break;
    case Verb::kMisses:
      req.cap = cap_or(MissesOptions{}.capacity, 1);
      break;
    case Verb::kSweep:
      req.line = req.line.value_or(SweepDriverOptions{}.line_elems);
      if (req.engine) {
        const SweepEngine e = parse_sweep_engine(*req.engine);
        *req.engine = e == SweepEngine::kSymbolic ? "symbolic" : "simulate";
      }
      if (req.threads < 1 || req.threads > kMaxThreads) {
        throw Error("--threads must be between 1 and " +
                    std::to_string(kMaxThreads) + ", got " +
                    std::to_string(req.threads));
      }
      break;
    case Verb::kLint:
      req.cap = cap_or(LintOptions{}.capacity, 0);
      break;
    case Verb::kAdvise:
      req.cap = cap_or(AdvisorOptions{}.capacity, 1);
      if (req.top < 0) {
        throw Error("--top must be at least 0 (0 shows all; got " +
                    std::to_string(req.top) + ")");
      }
      break;
  }
  return req;
}

VerbResult run_verb(const VerbRequest& request, bool json,
                    const Governor* gov, std::ostream& os,
                    const ir::Program* parsed) {
  const VerbRequest req = resolve(request);
  std::optional<ir::Program> own;
  const auto program = [&]() -> const ir::Program& {
    return parsed != nullptr ? *parsed
                             : own.emplace(ir::parse_program(req.program));
  };
  VerbResult res;
  switch (req.verb) {
    case Verb::kAnalyze: {
      const ir::Program& prog = program();
      if (json) render_analyze_json(prog, os, gov);
      else render_analyze_text(prog, gov, os);
      break;
    }
    case Verb::kMisses: {
      MissesOptions opts;
      opts.capacity = *req.cap;
      opts.simulate = req.simulate;
      const ir::Program& prog = program();
      require_env(prog, req.env);
      const MissesOutcome oc = run_misses(prog, req.env, opts, gov);
      if (json) render_misses_json(oc, os);
      else render_misses_text(oc, os);
      res.exit_code = oc.exit_code();
      break;
    }
    case Verb::kSweep: {
      SweepDriverOptions opts;
      if (req.engine) opts.engine = parse_sweep_engine(*req.engine);
      opts.line_elems = *req.line;
      opts.threads = static_cast<int>(req.threads);
      opts.spool_path = req.spool_path;
      const ir::Program& prog = program();
      require_env(prog, req.env);
      const SweepOutcome oc = run_sweep(prog, req.env, opts, gov);
      if (json) render_sweep_json(oc, os, req.sites);
      else render_sweep_text(oc, os, req.sites);
      res.exit_code = oc.exit_code();
      break;
    }
    case Verb::kLint: {
      // lint parses for itself: parse failures become diagnostics, and
      // out-of-class programs are reported, not thrown.
      LintOptions opts;
      opts.env = req.env;
      opts.capacity = *req.cap;
      opts.line_elems = req.line.value_or(opts.line_elems);
      const LintReport rep = lint_text(req.program, opts);
      if (json) render_json(rep, os);
      else render_text(rep, os, req.source_name);
      if (!rep.ok()) {
        // The report is complete and printed; the *program* has errors.
        res.exit_code = to_int(ExitCode::kError);
        res.error = "lint found " + std::to_string(rep.num_errors()) +
                    " error(s)";
      }
      break;
    }
    case Verb::kAdvise: {
      // Parses with source positions: the DP3xx findings carry the
      // SourceLoc of the dependence's source access.
      const ir::ParsedProgram pp = ir::parse_program_located(req.program);
      require_env(pp.prog, req.env);
      AdvisorOptions opts;
      opts.capacity = *req.cap;
      opts.line_elems = req.line.value_or(opts.line_elems);
      opts.governor = gov;
      const AdvisorReport rep = advise(pp.prog, req.env, opts, &pp.locs);
      const auto top = static_cast<std::size_t>(req.top);
      if (json) render_advice_json(rep, os, top);
      else render_advice_text(rep, os, req.source_name, top);
      if (rep.completeness == Completeness::kTruncated) {
        res.exit_code = to_int(ExitCode::kTruncated);
      }
      break;
    }
  }
  return res;
}

}  // namespace sdlo::analysis
