// Greedy delta-debugging reducer for counterexample programs.
//
// When a differential oracle (fuzz/oracles.hpp) finds a program on which
// two implementations disagree, the raw generated program is usually far
// larger than the disagreement needs. reduce() shrinks it while a caller
// supplied predicate keeps reporting failure, by repeatedly trying, in
// order of expected payoff:
//
//   * deleting whole band subtrees and statements
//   * removing a loop variable globally (from every band that declares it
//     and every subscript that mentions it; bands left loop-less are
//     spliced into their parent)
//   * removing read accesses from statements (the trailing write stays, so
//     programs remain expressible in the textual IR grammar)
//   * dropping a subscript dimension of an array globally, or removing one
//     variable from a fused (mixed-radix) subscript globally — "globally"
//     keeps every reference to an array structurally identical, which the
//     constrained class requires
//   * shrinking environment bindings (loop extents) toward 1
//
// Each candidate is re-validated and re-tested; candidates that no longer
// fail (or are no longer valid programs) are discarded. The result is a
// 1-minimal-ish program: no single remaining step of the above shrinks it
// further. Artifacts round-trip through ir::Printer / ir::Parser with the
// environment carried in `# set NAME=VALUE` comment lines.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ir/program.hpp"
#include "symbolic/expr.hpp"

namespace sdlo::fuzz {

/// Returns true when (prog, env) still exhibits the failure being chased.
/// reduce() treats a predicate that throws as "does not fail" and discards
/// the candidate, so oracle predicates need no exception guards.
using FailurePredicate =
    std::function<bool(const ir::Program&, const sym::Env&)>;

/// Outcome of a reduction run.
struct Reduction {
  ir::Program prog;          ///< minimized program (still failing)
  sym::Env env;              ///< minimized environment
  std::size_t evaluations = 0;  ///< predicate calls spent
  std::size_t steps = 0;        ///< shrinking steps that were kept
};

/// Shrinks `prog`/`env` while `fails` holds, spending at most 20,000
/// predicate evaluations. Precondition: fails(prog, env) is true (throws
/// ContractViolation otherwise — reducing a passing program is always a
/// caller bug).
Reduction reduce(const ir::Program& prog, const sym::Env& env,
                 const FailurePredicate& fails);

/// Renders a replayable counterexample artifact: `# set NAME=VALUE` comment
/// lines for the environment followed by the ir::Printer program text. The
/// note, when non-empty, is embedded as additional comment lines.
std::string to_artifact(const ir::Program& prog, const sym::Env& env,
                        const std::string& note = "");

/// A parsed counterexample artifact.
struct Artifact {
  ir::Program prog;
  sym::Env env;
};

/// Parses an artifact produced by to_artifact (or any textual IR program
/// with `# set NAME=VALUE` comments). Throws ParseError on malformed input.
Artifact parse_artifact(const std::string& text);

/// Atomically writes an artifact (or any text) to `path`: the content goes
/// to `path` + ".tmp" first, is flushed and checked, and only then renamed
/// over `path` — a crash, disk-full error, or injected fault mid-write can
/// never leave a truncated file at `path` (the temp file is removed on
/// failure). Throws Error when the write or rename fails.
void write_artifact_file(const std::string& path, const std::string& content);

}  // namespace sdlo::fuzz
