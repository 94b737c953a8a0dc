// N-way differential oracles for the model/simulator stack.
//
// The paper's central claim (§4-§5, Tables 2-3) is that the symbolic
// stack-distance model matches a fully-associative LRU simulator *exactly*
// on the constrained TCE loop class. The repo carries several independent
// implementations of that semantics:
//
//   model::symbolic_sweep        analytic full-curve stack-distance
//                                histogram (no trace walk)
//   model::predict_at            the sweep read at one capacity, with
//                                probe estimates for inexact partitions
//   cachesim::simulate_lru_lines arena LRU cache fed by the trace walker,
//                                at line granularity (simulate_lru is
//                                its one-element-line case)
//   cachesim::profile_stack_distances / ProfileResult::result
//                                per-access stack-distance histogram from
//                                the Fenwick RecencyIndex (the one the
//                                sweep's hole merge also uses): the exact
//                                trace-side reference
//   cachesim::simulate_sweep_streamed
//                                the one sweep engine: per-chunk
//                                marker-augmented LRU stacks + exact hole
//                                merge
//   trace::SpooledTrace          out-of-core spool round trip
//   cachesim::simulate_set_assoc set-associative geometry (edge cases of
//                                which must degenerate to the above)
//
// The streamed sweep consumes the run-compressed trace and is enrolled as
// a first-class oracle: it must match reference_sweep() — the naive
// simulators fed from walk() — bit for bit, misses_by_site included, so
// every bulk fast path is differentially pinned to the naive semantics.
// The profiler walks every access too, and is itself checked against the
// LruCache simulator; the model is checked against the profiler. The tests
// use the same references.
//
// The static-analysis claims are brute-forced on fuzz::NaiveInterpreter
// (naive_interpreter.hpp), the one naive interpreter of the IR: each loop
// lint calls DOALL-safe has its subtree executed per outer context and
// candidate iteration, and the dependence analysis's direction vectors
// are compared with a replay of the whole program.
//
// check_program() cross-checks all of them on one program across a
// capacity / line-size / associativity ladder and reports every
// disagreement. Any mismatch is a bug somewhere in the stack by
// construction; the reducer (fuzz/reducer.hpp) can then shrink the
// offending program to a minimal counterexample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/results.hpp"
#include "cachesim/sweep.hpp"
#include "fuzz/generator.hpp"
#include "ir/program.hpp"
#include "support/governor.hpp"
#include "symbolic/expr.hpp"
#include "trace/walker.hpp"

namespace sdlo::fuzz {

/// Which oracle families run, and which programs are too long to check.
struct OracleOptions {
  /// Programs whose trace exceeds this are skipped (report.skipped).
  std::uint64_t max_trace_accesses = 2'000'000;

  bool check_roundtrip = true;  ///< parse(print(p)) structural equality
  bool check_walker = true;     ///< walk_runs group contract and counts
  /// Model predictions vs the exact stack-distance profile: bit-identical
  /// at the default enumeration budget, and bit-identical or marked
  /// approximate at a budget of 16 combinations. When model::symbolic_sweep
  /// answers with Confidence::kExact its histogram must also be
  /// bit-identical to the profiler's and its curve must match
  /// simulate_sweep_streamed at the capacity ladder plus every crossing
  /// point (misses_by_site included).
  bool check_model = true;
  bool check_profile = true;    ///< profiler vs simulate_lru_lines
  /// The streamed sweep engine as one chunk inline and at chunk counts
  /// {2, 5, 17} on a 2-thread pool, against simulate_lru_lines, a teed
  /// pooled run's spool bytes against spool_program, and SpooledTrace's
  /// groups against the program's own walk_runs.
  bool check_sweep = true;
  /// simulate_set_assoc at full associativity vs simulate_lru_lines.
  bool check_set_assoc = true;
  bool check_lint = true;       ///< generated programs lint error-free
  /// Brute-force verification of DOALL-safety claims: every loop the
  /// analysis pass marks safe is executed element-wise and checked for
  /// cross-iteration conflicts; loops flagged unsafe are excluded.
  bool check_parallel = true;
  /// Budget oracle: a zero memory budget must give the truncated empty
  /// prefix (every row 0 accesses, 0 misses) and leave nothing charged,
  /// and a budget of only the stack tables forces a pooled multi-chunk
  /// sweep down to one chunk, bit-identical to the unbudgeted run.
  bool check_budgeted = true;
  /// Brute-force dependence oracle: replay the trace recording every
  /// observed (src site, dst site, kind, direction vector) tuple and
  /// require set equality with the expansion of the dependence pass's
  /// reported direction vectors — both soundness (nothing observed is
  /// unreported) and precision (every reported vector is realized).
  bool check_dependence = true;
  /// Transformation-legality oracle: run the advisor and, for every
  /// recommendation, require (a) an identical dataflow fingerprint of the
  /// transformed program (every read sees the same producing write) and
  /// (b) the claimed per-site miss counts to match the exact profiler.
  bool check_advise = true;
  /// Serve-vs-CLI oracle, on what the daemon adds to analysis::run_verb.
  /// Decoding ("serve-decode"): the request line of each of nine verb and
  /// knob cases must resolve equal to the VerbRequest `sdlo <verb>` builds
  /// from the same flags; no verb runs. End to end ("serve"): one case,
  /// picked by the program's structural hash, answered by an in-process
  /// serve::Service and framed as on the wire, must carry the bytes
  /// run_verb prints for `--json`, first as a memo miss and then as a hit.
  bool check_serve = true;
  /// Optional resource governor: the battery polls it between oracle
  /// families and, when it trips, returns the partial report with
  /// `truncated` set instead of running the remaining families.
  const Governor* governor = nullptr;
};

/// The selectable oracle family names, in battery order ("roundtrip",
/// "walker", ..., "serve") — the vocabulary of `sdlo fuzz --only`.
std::vector<std::string> oracle_family_names();

/// Applies `--only FAMILY,FAMILY`: disables every family, then re-enables
/// the named ones. An empty string is a no-op (all families stay on); an
/// unknown name throws sdlo::Error listing every valid family.
void apply_family_filter(OracleOptions& opts, const std::string& only);

/// One disagreement between two implementations.
struct Mismatch {
  std::string oracle;  ///< oracle family, e.g. "model-vs-profile"
  std::string detail;  ///< the two values and the configuration they differ at
};

/// Outcome of running every oracle family on one program.
struct OracleReport {
  bool skipped = false;        ///< trace exceeded max_trace_accesses
  bool truncated = false;      ///< a governor budget stopped the battery
  std::uint64_t accesses = 0;  ///< trace length (0 when skipped early)
  std::vector<Mismatch> mismatches;

  bool ok() const { return mismatches.empty(); }
};

/// Every configuration simulated on its own by the per-access reference
/// simulate_lru_lines, in `configs` order: what simulate_sweep_streamed
/// must return bit for bit.
std::vector<cachesim::SimResult> reference_sweep(
    const trace::CompiledProgram& cp,
    const std::vector<cachesim::SweepConfig>& configs);

/// Runs every enabled oracle family on `prog` bound with `env`.
/// The program must be validated and `env` must bind every free symbol.
OracleReport check_program(const ir::Program& prog, const sym::Env& env,
                           const OracleOptions& opts = {});

/// Renders a reproducible failure report: the seed and stream index, the
/// environment, the ir::Printer dump of the program (replayable through
/// ir::Parser), and every mismatch. This is the string every fuzz/property
/// failure must print so CI logs alone suffice to reproduce.
std::string describe_failure(const GeneratedProgram& gp,
                             const OracleReport& report);

/// Same rendering for a program that did not come from the generator.
std::string describe_failure(const ir::Program& prog, const sym::Env& env,
                             const OracleReport& report);

}  // namespace sdlo::fuzz
