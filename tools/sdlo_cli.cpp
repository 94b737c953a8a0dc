// sdlo — command-line driver for the library.
//
// Reads a loop-nest program (the textual IR of ir/parser.hpp) from a file
// or stdin and runs the analysis pipeline on it:
//
//   sdlo analyze  prog.sdlo                      # partitions + distances
//   sdlo lint     prog.sdlo [--set N=512] [--cap 4096] [--line 8] [--json]
//   sdlo misses   prog.sdlo --cap 4096 --set N=512 [--simulate] [--json]
//   sdlo sweep    prog.sdlo --set N=512 [--engine simulate|symbolic] [--line 4]
//                 [--sites] [--json] [--threads T] [--spool FILE]
//   sdlo trace    prog.sdlo --set N=8 [--limit 100]
//   sdlo advise   prog.sdlo --set N=512 [--cap 4096] [--line 8] [--top K]
//                 [--json]
//   sdlo fuzz     [--seed S] [--count N] [--time-budget SEC]
//                 [--artifact-dir DIR] [--replay artifact.sdlo]
//                 [--only FAMILY,FAMILY]
//   sdlo serve    --socket /path.sock [--workers 4] [--max-active 64]
//                 [--cache-entries 256] [--deadline SEC] [--mem-budget MB]
//   sdlo client   --socket /path.sock {REQUEST-JSON|-} [--envelope]
//                 [--retries N]
//
// Every long-running verb additionally honors the resource-governance
// flags `--deadline SEC` and `--mem-budget MB` (support/governor.hpp): on
// deadline/cancellation the verb stops at the next safe point and prints a
// valid partial result, marked "truncated" in text and JSON, exiting with
// status 2 (ExitCode::kTruncated). A memory budget is never exceeded: a
// pooled sweep denied its tables retries as one chunk (the same bytes),
// a sweep denied even those walks nothing and answers the truncated
// empty prefix, and an --engine symbolic sweep denied its histograms
// answers the partitions it finished; both exit 2. A sweep naming no
// engine that the model could not finish walks. A negative --deadline, or a
// --mem-budget below 0 or above 2^43 MB, is a usage error. Exit codes: 0
// ok, 1 error, 2 truncated by budget.
//
// The five analysis verbs have one front door, shared with the daemon
// (analysis/verbs.hpp): main() turns the flags into an
// analysis::VerbRequest — a flag left out stays absent and takes the
// driver's default — and analysis::run_verb checks every knob and runs
// the verb, so `sdlo serve` answers with the same bytes and the same
// errors. A --cap below 1 (misses, advise) or below 0 (lint), a --line
// (sweep, lint, advise) that is not a positive power of two, an advise
// --top below 0 and a sweep --threads outside 1-256 are usage errors:
// exit 1 with a message naming the flag. What each verb computes is
// documented beside its driver: model/analyzer.hpp (analyze),
// analysis/misses_driver.hpp (misses), analysis/sweep_driver.hpp (sweep:
// engines, fallback, --threads, --spool), analysis/lint.hpp (lint, which
// exits 1 with the error count on stderr when the program has errors) and
// analysis/advisor.hpp (advise). This file keeps the flag parsing and the
// CLI-only verbs: trace, fuzz, serve and client. Symbols are bound with
// repeated --set NAME=VALUE flags.
//
// `serve` runs the analysis daemon (src/serve, DESIGN.md §16): NDJSON
// requests over a Unix-domain socket, answered through the same
// analysis::run_verb. `client` sends one request line (or a stream from
// stdin), retries `rejected` responses with backoff, prints the payload
// (the whole response line with --envelope) and exits with the response
// status mapped through the exit-code taxonomy.
//
// `fuzz` runs the differential oracles of src/fuzz on generated programs;
// a mismatch is reduced to a minimal counterexample and written to
// --artifact-dir as a `.sdlo` artifact that `--replay` re-checks.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "analysis/verbs.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reducer.hpp"
#include "ir/parser.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/cli.hpp"
#include "support/governor.hpp"
#include "support/string_util.hpp"
#include "trace/walker.hpp"

namespace {

using namespace sdlo;

constexpr const char* kVerbUsage =
    "sdlo {analyze|lint|misses|sweep|trace|advise} <file|-> "
    "[NAME=VALUE...] [flags]\n";
constexpr const char* kClientUsage =
    "sdlo client --socket PATH {REQUEST-JSON|-} [--envelope] [--retries N]\n";

std::string read_input(const std::string& path) {
  if (path == "-") {
    std::ostringstream os;
    os << std::cin.rdbuf();
    return os.str();
  }
  std::ifstream in(path);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Binds every positional "NAME=VALUE", then every --set NAME=VALUE in
/// order: a --set overrides a positional binding, a later --set an
/// earlier one.
sym::Env parse_sets(const std::vector<std::string>& positional,
                    const std::vector<std::string>& set_flags) {
  sym::Env env;
  for (const auto* list : {&positional, &set_flags}) {
    for (const auto& p : *list) {
      auto eq = p.find('=');
      if (eq == std::string::npos) continue;
      env[p.substr(0, eq)] = parse_int(p.substr(eq + 1));
    }
  }
  return env;
}

/// The CLI's resource governor, built from --deadline / --mem-budget. The
/// MemoryBudget must outlive every governed call, so it lives here.
struct CliGovernor {
  Governor gov;
  std::unique_ptr<MemoryBudget> budget;
  bool active = false;

  /// Governor pointer to hand to the engines: null when ungoverned, so
  /// default behavior (no polling at all) is preserved.
  const Governor* get() const { return active ? &gov : nullptr; }
};

/// The largest --mem-budget: 2^43 MB is 2^63 bytes, so the byte count
/// neither wraps nor leaves the signed range.
constexpr std::int64_t kMaxMemBudgetMb = std::int64_t{1} << 43;

/// Builds the governor (0 turns either flag off). A value the governor
/// cannot honor is a usage error naming the flag, never a silent
/// ungoverned run.
CliGovernor make_governor(double deadline_sec, std::int64_t mem_budget_mb) {
  if (std::isnan(deadline_sec) || deadline_sec < 0) {
    std::ostringstream got;
    got << deadline_sec;
    throw Error("--deadline must be at least 0 seconds, got " + got.str());
  }
  if (mem_budget_mb < 0 || mem_budget_mb > kMaxMemBudgetMb) {
    throw Error("--mem-budget must be between 0 and " +
                std::to_string(kMaxMemBudgetMb) + " MB, got " +
                std::to_string(mem_budget_mb));
  }
  CliGovernor g;
  if (deadline_sec > 0) {
    g.gov.deadline = Deadline::after_seconds(deadline_sec);
    g.active = true;
  }
  if (mem_budget_mb > 0) {
    g.budget = std::make_unique<MemoryBudget>(
        static_cast<std::uint64_t>(mem_budget_mb) * 1024 * 1024);
    g.gov.memory = g.budget.get();
    g.active = true;
  }
  return g;
}

int cmd_trace(const ir::Program& prog, const sym::Env& env,
              std::int64_t limit) {
  if (limit < 0) throw Error("--limit must be non-negative");
  trace::CompiledProgram cp(prog, env);
  const std::uint64_t total = cp.total_accesses();
  const std::uint64_t shown =
      std::min(total, static_cast<std::uint64_t>(limit));
  // Walk only the run groups that cover the first `shown` accesses.
  const std::uint64_t groups =
      shown == 0 ? 0 : cp.group_of_access(shown - 1) + 1;
  std::uint64_t printed = 0;
  cp.walk_runs_range(0, groups, [&](const trace::Run* g, std::size_t nrefs) {
    for (std::uint64_t v = 0; v < g[0].count && printed < shown; ++v) {
      for (std::size_t r = 0; r < nrefs && printed < shown; ++r) {
        std::cout << g[r].at(v)
                  << (g[r].mode == ir::AccessMode::kWrite ? " W" : " R")
                  << " site=" << g[r].site << "\n";
        ++printed;
      }
    }
  });
  if (total > shown) {
    std::cout << "... ("
              << with_commas(static_cast<std::int64_t>(total - shown))
              << " more)\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// fuzz: generate → oracle-check → reduce → artifact.
// ---------------------------------------------------------------------------

/// Reduces a failing program with the full oracle set as the predicate and
/// writes the minimized artifact; returns the artifact path (empty when no
/// directory was given).
std::string minimize_and_save(const ir::Program& prog, const sym::Env& env,
                              const std::string& note,
                              const std::string& artifact_dir) {
  const fuzz::FailurePredicate still_fails =
      [](const ir::Program& p, const sym::Env& e) {
        return !fuzz::check_program(p, e).ok();
      };
  const auto red = fuzz::reduce(prog, env, still_fails);
  const auto final_report = fuzz::check_program(red.prog, red.env);
  std::cerr << "reduced after " << red.evaluations << " evaluations ("
            << red.steps << " steps kept); minimized counterexample:\n"
            << fuzz::describe_failure(red.prog, red.env, final_report);
  if (artifact_dir.empty()) return "";
  std::filesystem::create_directories(artifact_dir);
  const std::string path = artifact_dir + "/counterexample.sdlo";
  // Atomic temp-and-rename write: a crash or injected fault mid-write must
  // never leave a truncated (unreplayable) artifact behind.
  fuzz::write_artifact_file(path, fuzz::to_artifact(red.prog, red.env, note));
  std::cerr << "artifact written to " << path
            << " (replay with: sdlo fuzz --replay " << path << ")\n";
  return path;
}

int cmd_fuzz_replay(const std::string& path,
                    const std::string& artifact_dir) {
  const auto artifact = fuzz::parse_artifact(read_input(path));
  const auto report = fuzz::check_program(artifact.prog, artifact.env);
  if (report.ok()) {
    std::cout << (report.skipped ? "trace too large, oracles skipped\n"
                                 : "all oracles agree; artifact no longer "
                                   "reproduces a mismatch\n");
    return 0;
  }
  std::cerr << fuzz::describe_failure(artifact.prog, artifact.env, report);
  minimize_and_save(artifact.prog, artifact.env, "replayed from " + path,
                    artifact_dir);
  return 1;
}

int cmd_fuzz(std::uint64_t seed, std::int64_t count,
             std::int64_t time_budget_sec, const std::string& artifact_dir,
             const std::string& only, const Governor* gov) {
  // --time-budget is the campaign's own planned horizon: reaching it is
  // normal completion (exit 0). --deadline (the governor) is an external
  // resource ceiling: tripping it truncates the run (exit 2). The budget
  // rides the shared Deadline type; the governor is additionally polled
  // *inside* the oracle battery, so one oversized program cannot blow
  // through the deadline between checks.
  const Deadline budget = time_budget_sec > 0
                              ? Deadline::after_seconds(
                                    static_cast<double>(time_budget_sec))
                              : Deadline::never();
  std::uint64_t total_accesses = 0;
  std::int64_t checked = 0;
  std::int64_t skipped = 0;
  bool truncated = false;
  fuzz::OracleOptions oopts;
  oopts.governor = gov;
  // Throws a typed Error listing every valid family name on an unknown
  // --only value (exit 1 via main's taxonomy).
  fuzz::apply_family_filter(oopts, only);
  for (std::int64_t i = 0; i < count; ++i) {
    if (budget.expired()) {
      std::cout << "time budget reached after " << checked << " programs\n"
                << std::flush;
      break;
    }
    if (governor_should_stop(gov)) {
      truncated = true;
      break;
    }
    fuzz::ProgramGenerator gen(seed + static_cast<std::uint64_t>(i));
    const auto gp = gen.generate();
    const auto report = fuzz::check_program(gp.prog, gp.env, oopts);
    if (report.skipped) {
      ++skipped;
      continue;
    }
    ++checked;
    total_accesses += report.accesses;
    if (!report.ok()) {
      std::cerr << fuzz::describe_failure(gp, report);
      std::ostringstream note;
      note << "seed " << gp.seed << " index " << gp.index;
      minimize_and_save(gp.prog, gp.env, note.str(), artifact_dir);
      return to_int(ExitCode::kError);
    }
    if (report.truncated) {
      truncated = true;
      break;
    }
    if ((i + 1) % 200 == 0) {
      std::cout << "  " << (i + 1) << "/" << count << " programs, "
                << with_commas(static_cast<std::int64_t>(total_accesses))
                << " accesses cross-checked\n"
                << std::flush;  // a redirected run shows progress live
    }
  }
  std::cout << "fuzzed " << checked << " programs (" << skipped
            << " skipped as oversized), "
            << with_commas(static_cast<std::int64_t>(total_accesses))
            << " accesses cross-checked, zero oracle mismatches"
            << (truncated ? " — TRUNCATED by deadline" : "") << "\n";
  return to_int(truncated ? ExitCode::kTruncated : ExitCode::kOk);
}

// ---------------------------------------------------------------------------
// serve / client: the multi-tenant analysis daemon and its bundled client.
// ---------------------------------------------------------------------------

int cmd_serve(const std::string& socket_path, int workers,
              std::int64_t max_active, std::int64_t cache_entries,
              double deadline_sec, std::int64_t mem_budget_mb) {
  if (socket_path.empty()) {
    std::cerr << "sdlo serve: --socket PATH is required\n";
    return to_int(ExitCode::kError);
  }
  serve::ServerOptions opts;
  opts.socket_path = socket_path;
  opts.workers = workers;
  opts.service.max_active = static_cast<int>(max_active);
  opts.service.cache_entries = static_cast<std::size_t>(cache_entries);
  opts.service.default_deadline_sec = deadline_sec;
  opts.service.memory_budget_bytes =
      mem_budget_mb > 0
          ? static_cast<std::uint64_t>(mem_budget_mb) * 1024 * 1024
          : 0;
  serve::Server server(opts);
  server.start();
  std::cerr << "sdlo serve: listening on " << socket_path << " ("
            << opts.workers << " workers, max " << opts.service.max_active
            << " in flight)\n";
  server.run();  // returns after a client's `shutdown` verb
  std::cerr << "sdlo serve: shut down\n";
  return to_int(ExitCode::kOk);
}

int cmd_client(const std::string& socket_path, const std::string& source,
               bool envelope, std::int64_t retries) {
  if (socket_path.empty()) {
    std::cerr << "sdlo client: --socket PATH is required\n";
    return to_int(ExitCode::kError);
  }
  serve::Client client(socket_path);
  serve::BackoffPolicy policy;
  if (retries >= 0) policy.max_attempts = static_cast<int>(retries) + 1;
  const auto run_one = [&](const std::string& line) {
    const serve::RetryOutcome out =
        serve::request_with_retry(client, line, policy);
    const serve::Response& r = out.response;
    if (envelope) {
      std::cout << serve::render_response(r) << "\n";
    } else {
      if (!r.payload.empty()) std::cout << r.payload << "\n";
      for (const serve::Response& sub : r.batch) {
        if (!sub.payload.empty()) std::cout << sub.payload << "\n";
        if (!sub.error.empty()) {
          std::cerr << "sdlo client: " << sub.error << "\n";
        }
      }
      if (!r.error.empty()) std::cerr << "sdlo client: " << r.error << "\n";
      if (r.status == serve::Status::kRejected) {
        std::cerr << "sdlo client: rejected after " << out.attempts
                  << " attempt(s); server says retry after "
                  << r.retry_after_ms << " ms\n";
      }
    }
    return serve::status_exit_code(r.status);
  };
  if (source == "-") {
    int worst = to_int(ExitCode::kOk);
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      const int code = run_one(line);
      if (code > worst) worst = code;
    }
    return worst;
  }
  return run_one(source);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string families;
    for (const std::string& f : fuzz::oracle_family_names()) {
      families += (families.empty() ? "" : ", ") + f;
    }
    CommandLine cli(argc, argv);
    cli.flag("cap",
             "cache capacity in elements: >= 1 for misses and advise, "
             ">= 0 for lint (0 skips its capacity checks)")
        .flag("set", "bind a symbol: --set N=512 (repeatable)")
        .flag("simulate", "cross-check the model with the simulator")
        .flag("line",
              "line size in elements, a positive power of two: sweep "
              "(default 1), lint and advise (default: no false-sharing "
              "check)")
        .flag("engine",
              "sweep engine: simulate or symbolic (analytic curve, no "
              "trace walk; falls back to simulation when the model is not "
              "exact). Default: the simulated curve, which the exact "
              "model counts for a trace of 2^20 accesses or more at "
              "--line 1 without --spool")
        .flag("sites", "per-site miss breakdown (sweep)")
        .flag("limit", "max trace records to print (trace; >= 0)")
        .flag("seed", "base seed for fuzz (program i uses seed+i)")
        .flag("count", "number of programs to fuzz (default 500)")
        .flag("time-budget", "stop fuzzing after SEC seconds (0 = off)")
        .flag("artifact-dir", "directory for minimized counterexamples")
        .flag("replay", "re-check a counterexample artifact (fuzz)")
        .flag("json", "machine-readable report (analyze/lint/misses/sweep/"
                      "advise)")
        .flag("deadline",
              "wall-clock ceiling in seconds; partial results exit 2")
        .flag("mem-budget",
              "dense-table memory ceiling in MB, 0-2^43; a sweep denied "
              "its tables truncates (exit 2)")
        .flag("threads",
              "worker threads for sweep, 1-256: > 1 profiles time chunks "
              "in parallel (bit-identical)")
        .flag("spool",
              "tee the run-compressed trace to FILE on one more walk "
              "beside the sweep (simulated engine only; removed on any "
              "failure or truncation)")
        .flag("top", "max recommendations shown (advise; 0 = all)")
        .flag("only", "comma-separated oracle families to run (fuzz): " +
                          families +
                          " (unknown names exit 1 listing the valid "
                          "families)")
        .flag("socket", "Unix-domain socket path (serve/client)")
        .flag("workers", "serve: worker threads (default 4)")
        .flag("max-active",
              "serve: admission bound on in-flight requests; beyond it "
              "requests are shed with a typed rejected response "
              "(default 64)")
        .flag("cache-entries",
              "serve: memo cache entries (default 256; 0 disables)")
        .flag("envelope", "client: print the full response envelope line")
        .flag("retries",
              "client: retries after a rejected response (default 7, with "
              "exponential backoff honoring the server's retry_after_ms)");
    if (!cli.finish()) return to_int(ExitCode::kOk);

    const auto& pos = cli.positional();
    if (pos.empty()) {
      std::cerr << "usage: " << kVerbUsage
                << "       sdlo fuzz [--seed S] [--count N] "
                   "[--time-budget SEC] [--artifact-dir DIR] "
                   "[--replay artifact.sdlo]\n"
                   "       sdlo serve --socket PATH [--workers N] "
                   "[--max-active N] [--cache-entries N]\n"
                << "       " << kClientUsage;
      return to_int(ExitCode::kError);
    }
    const std::string& verb = pos[0];
    const CliGovernor governor = make_governor(
        cli.get_double("deadline", 0), cli.get_int("mem-budget", 0));
    if (verb == "fuzz") {
      const std::string replay = cli.get_string("replay", "");
      const std::string artifact_dir = cli.get_string("artifact-dir", "");
      if (!replay.empty()) return cmd_fuzz_replay(replay, artifact_dir);
      return cmd_fuzz(
          static_cast<std::uint64_t>(cli.get_int("seed", 1)),
          cli.get_int("count", 500), cli.get_int("time-budget", 0),
          artifact_dir, cli.get_string("only", ""), governor.get());
    }
    if (verb == "serve") {
      return cmd_serve(cli.get_string("socket", ""),
                       static_cast<int>(cli.get_int("workers", 4)),
                       cli.get_int("max-active", 64),
                       cli.get_int("cache-entries", 256),
                       cli.get_double("deadline", 0),
                       cli.get_int("mem-budget", 0));
    }
    if (verb == "client") {
      if (pos.size() < 2) {
        std::cerr << "usage: " << kClientUsage;
        return to_int(ExitCode::kError);
      }
      return cmd_client(cli.get_string("socket", ""), pos[1],
                        cli.get_bool("envelope", false),
                        cli.get_int("retries", -1));
    }
    if (pos.size() < 2) {
      std::cerr << "usage: " << kVerbUsage;
      return to_int(ExitCode::kError);
    }
    const sym::Env env = parse_sets(pos, cli.get_all("set"));
    if (verb == "trace") {
      return cmd_trace(ir::parse_program(read_input(pos[1])), env,
                       cli.get_int("limit", 50));
    }
    if (const auto v = analysis::parse_verb(verb)) {
      analysis::VerbRequest req;
      req.verb = *v;
      req.program = read_input(pos[1]);
      req.env = env;
      if (cli.has("cap")) req.cap = cli.get_int("cap", 0);
      if (cli.has("line")) req.line = cli.get_int("line", 0);
      req.simulate = cli.get_bool("simulate", req.simulate);
      req.sites = cli.get_bool("sites", req.sites);
      if (cli.has("engine")) req.engine = cli.get_string("engine", "");
      req.top = cli.get_int("top", req.top);
      req.threads = cli.get_int("threads", req.threads);
      req.spool_path = cli.get_string("spool", "");
      req.source_name = pos[1] == "-" ? "<stdin>" : pos[1];
      const analysis::VerbResult res =
          analysis::run_verb(req, cli.get_bool("json", false),
                             governor.get(), std::cout);
      if (!res.error.empty()) std::cerr << "sdlo: " << res.error << "\n";
      return res.exit_code;
    }
    std::cerr << "unknown command: " << verb << "\n";
    return to_int(ExitCode::kError);
  } catch (const BudgetExceeded& e) {
    std::cerr << "sdlo: " << e.what() << "\n";
    return to_int(ExitCode::kTruncated);
  } catch (const std::exception& e) {
    std::cerr << "sdlo: " << e.what() << "\n";
    return to_int(ExitCode::kError);
  }
}
