// The one front door of the five analysis verbs, shared by `sdlo <verb>`
// and the serve daemon (DESIGN.md §16). Both turn their input — flags, or
// one request object — into a VerbRequest and call run_verb(), so neither
// knows a verb's defaults or how to run it: the daemon answers with the
// bytes of `sdlo <verb> --json`, and rejects a bad knob with its message.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "ir/program.hpp"
#include "support/governor.hpp"
#include "symbolic/expr.hpp"

namespace sdlo::analysis {

enum class Verb : std::uint8_t { kAnalyze, kMisses, kSweep, kLint, kAdvise };

/// "analyze", "misses", "sweep", "lint" or "advise".
const char* verb_name(Verb v);

/// The verb called `name`; nullopt for any other word.
std::optional<Verb> parse_verb(const std::string& name);

/// One analysis question. An absent optional takes the default of the
/// driver the verb runs (MissesOptions, SweepDriverOptions, LintOptions,
/// AdvisorOptions); a present one must be valid for the verb.
struct VerbRequest {
  Verb verb = Verb::kAnalyze;
  std::string program{};               ///< program text
  sym::Env env{};                      ///< symbol bindings
  std::optional<std::int64_t> cap{};   ///< misses, lint, advise (elements)
  std::optional<std::int64_t> line{};  ///< sweep, lint, advise (elements)
  bool simulate = false;               ///< misses
  bool sites = false;                  ///< sweep
  std::optional<std::string> engine{};  ///< sweep; absent = planned
  std::int64_t top = 0;                ///< advise: recommendations, 0 = all
  // CLI only: the daemon leaves these at their defaults.
  std::int64_t threads = 1;            ///< sweep
  std::string spool_path{};            ///< sweep
  std::string source_name{};           ///< lint and advise text reports

  bool operator==(const VerbRequest&) const = default;
};

/// `req` with an absent cap (misses, lint, advise) or sweep line set to
/// the driver's default, so a request that spells out a default resolves
/// equal to one that leaves it out, and a sweep engine spelled by its
/// canonical name ("simulate" or "symbolic"; an absent engine stays
/// absent: the driver plans one); resolving twice changes nothing. The
/// one place the knob rules live: cap >= 1 (misses, advise) or >= 0
/// (lint), line a positive power of two, top >= 0, threads in 1-256; a
/// knob the verb reads that breaks its rule throws the usage error naming
/// the flag.
VerbRequest resolve(VerbRequest req);

struct VerbResult {
  int exit_code = 0;  ///< the ExitCode taxonomy: 0 ok, 1 error, 2 truncated
  std::string error;  ///< why the exit code is 1; the report still printed
};

/// Resolves `req` (so a knob out of range throws before any work), runs
/// the verb under `gov` and prints its report to `os`: the one-line JSON
/// document when `json`, else the human report. A program that does not
/// parse and a failing driver throw sdlo::Error (BudgetExceeded where the
/// verb has no partial result). misses, sweep and advise first run the
/// verifier's environment checks (WF007-WF009): an unbound symbol, a
/// non-positive extent or a size that overflows int64 throws the first
/// finding's `WF00x: ...` text.
/// Lint finding errors returns exit code 1 with its report printed. A
/// caller that already parsed `req.program` passes the result as
/// `parsed`; analyze, misses and sweep then run on it instead of parsing
/// the text again.
VerbResult run_verb(const VerbRequest& req, bool json, const Governor* gov,
                    std::ostream& os, const ir::Program* parsed = nullptr);

/// The cap and line rules, shared with the drivers' own checks: each
/// throws the usage error naming its flag when `cap` < `min` or `line` is
/// not a positive power of two.
void require_cap(std::int64_t cap, std::int64_t min);
void require_line(std::int64_t line);

}  // namespace sdlo::analysis
