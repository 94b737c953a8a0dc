// End-to-end regressions for `sdlo sweep`: one driver answers with and
// without --threads and --spool, so the JSON is the same bytes either way
// (apart from the kept spool's own member); the tee spool must survive
// exactly the runs that generated every group, and every failure or
// truncation path — injected pool faults, injected spool-write faults, an
// expired deadline — must leave neither the destination file nor its .tmp
// sibling behind (the RAII guard + temp-and-rename contract). These run the
// real binary as a subprocess so the cleanup is exercised through process
// exit, not just stack unwind. `sdlo trace --limit` is pinned here too: its
// first lines are walk()'s first accesses and its tail count is exact. So
// is `--cap`, `--threads`, `--deadline` and `--mem-budget` validation: an
// out-of-range value is a usage error naming the flag, never an internal
// precondition failure or a silent default. A repeated `--set` binds
// every symbol it names. Every analysis verb answers the CLI and the
// daemon alike: the same --json bytes for the same question (a memory
// budget below a sweep's tables included), and the same message for a bad
// knob.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/parser.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/string_util.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace {

namespace fs = std::filesystem;

#ifndef SDLO_CLI_PATH
#error "SDLO_CLI_PATH must name the sdlo binary"
#endif

std::string unique_path(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".spl"))
      .string();
}

/// Writes the matmul program the tests sweep and returns its path.
std::string program_file() {
  static const std::string path =
      (fs::temp_directory_path() /
       ("sdlo_cli_spool_prog_" + std::to_string(::getpid()) + ".sdlo"))
          .string();
  std::ofstream out(path);
  out << "for i<N>, j<N>, k<N> {\n  S1: C[i,k] += A[i,j] * B[j,k]\n}\n";
  return path;
}

/// Runs `env_prefix sdlo sweep prog --set N=48 extra_flags` quietly and
/// returns the process exit code (-1 if the shell itself failed).
int run_sweep(const std::string& env_prefix, const std::string& extra) {
  const std::string cmd = env_prefix + " \"" + SDLO_CLI_PATH + "\" sweep " +
                          program_file() + " --set N=48 " + extra +
                          " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// Runs `prefix sdlo args` and returns its stdout; `exit_code` receives
/// the process exit code (-1 if it did not exit normally). `redirect`
/// routes the streams: by default stderr is discarded.
std::string capture(const std::string& args, int& exit_code,
                    const std::string& redirect = "2>/dev/null",
                    const std::string& prefix = "") {
  const std::string cmd = prefix + "\"" + std::string(SDLO_CLI_PATH) +
                          "\" " + args + " " + redirect;
  exit_code = -1;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int rc = ::pclose(pipe);
  if (rc != -1 && WIFEXITED(rc)) exit_code = WEXITSTATUS(rc);
  return out;
}

/// Runs `prefix sdlo args` and returns its stderr (stdout discarded).
std::string capture_stderr(const std::string& args, int& exit_code,
                           const std::string& prefix = "") {
  return capture(args, exit_code, "2>&1 >/dev/null", prefix);
}

/// Runs `sdlo sweep prog --set N=48 extra_flags --json` and returns its
/// stdout (empty when the process failed).
std::string sweep_json(const std::string& extra) {
  int rc = 0;
  std::string out =
      capture("sweep " + program_file() + " --set N=48 --json " + extra, rc);
  return rc == 0 ? out : "";
}

/// The matmul program at N=12 (6,912 accesses), compiled in-process.
sdlo::trace::CompiledProgram trace_program() {
  std::ifstream in(program_file());
  std::stringstream text;
  text << in.rdbuf();
  return sdlo::trace::CompiledProgram(sdlo::ir::parse_program(text.str()),
                                      {{"N", 12}});
}

/// What `sdlo trace --limit limit` must print for `cp`.
std::string expected_trace(const sdlo::trace::CompiledProgram& cp,
                           std::uint64_t limit) {
  std::ostringstream os;
  std::uint64_t i = 0;
  cp.walk([&](const sdlo::trace::Access& a) {
    if (i++ >= limit) return;
    os << a.addr << (a.mode == sdlo::ir::AccessMode::kWrite ? " W" : " R")
       << " site=" << a.site << "\n";
  });
  if (cp.total_accesses() > limit) {
    os << "... ("
       << sdlo::with_commas(
              static_cast<std::int64_t>(cp.total_accesses() - limit))
       << " more)\n";
  }
  return os.str();
}

/// `json` without its "spool" member (the one place a --spool run differs).
std::string without_spool_member(std::string json) {
  const std::size_t at = json.find(",\"spool\":{");
  if (at != std::string::npos) json.erase(at, json.find('}', at) + 1 - at);
  return json;
}

void expect_no_spool(const std::string& path) {
  EXPECT_FALSE(fs::exists(path)) << path;
  EXPECT_FALSE(fs::exists(path + ".tmp")) << path << ".tmp";
}

TEST(CliSpool, CleanRunKeepsAFinishedDecodableSpool) {
  const std::string path = unique_path("sdlo_cli_clean");
  ASSERT_EQ(run_sweep("", "--threads 2 --spool " + path), 0);
  ASSERT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const sdlo::trace::SpooledTrace spool(path);
  EXPECT_GT(spool.group_count(), 0u);
  fs::remove(path);
}

TEST(CliSpool, SweepJsonIsIdenticalWithThreadsAndSpool) {
  const std::string path = unique_path("sdlo_cli_same_bytes");
  for (const std::string line : {"1", "8"}) {
    const std::string plain = sweep_json("--line " + line);
    ASSERT_FALSE(plain.empty()) << "line " << line;
    EXPECT_EQ(sweep_json("--line " + line + " --threads 4"), plain)
        << "line " << line;
    const std::string spooled =
        sweep_json("--line " + line + " --threads 4 --spool " + path);
    EXPECT_NE(spooled.find("\"spool\":{\"path\":"), std::string::npos)
        << spooled;
    EXPECT_EQ(without_spool_member(spooled), plain) << "line " << line;
    fs::remove(path);
  }
}

TEST(CliSpool, RemovedFlagsExitOneAsUnknown) {
  for (const std::string flag : {"trace-mode batched", "chunk-accesses 1000",
                                 "spool-version 2", "numa"}) {
    EXPECT_EQ(run_sweep("", "--" + flag), 1) << flag;
  }
}

TEST(CliSpool, SpoolWithTheSymbolicEngineIsAUsageError) {
  const std::string path = unique_path("sdlo_cli_symbolic");
  EXPECT_EQ(run_sweep("", "--engine symbolic --spool " + path), 1);
  expect_no_spool(path);
}

TEST(CliSpool, PoolFaultRemovesTheSpoolAndExitsOne) {
  const std::string path = unique_path("sdlo_cli_poolfault");
  EXPECT_EQ(run_sweep("SDLO_FAILPOINTS=pool-task=throw",
                      "--threads 2 --spool " + path),
            1);
  expect_no_spool(path);
}

TEST(CliSpool, SpoolWriteFaultRemovesTheSpoolAndExitsOne) {
  const std::string path = unique_path("sdlo_cli_writefault");
  EXPECT_EQ(run_sweep("SDLO_FAILPOINTS=spool-write=fail",
                      "--threads 2 --spool " + path),
            1);
  expect_no_spool(path);
}

TEST(CliSpool, ExpiredDeadlineTruncatesWithoutLeavingASpool) {
  const std::string path = unique_path("sdlo_cli_deadline");
  // An already-expired deadline trips the governor at the first poll, so
  // generation never completes and no spool may survive (exit 2: the
  // truncated sweep prefix is still a valid result).
  EXPECT_EQ(run_sweep("", "--threads 2 --spool " + path +
                              " --deadline 0.000001"),
            2);
  expect_no_spool(path);
}

TEST(CliTrace, LimitPrintsTheFirstAccessesAndAnExactTail) {
  const auto cp = trace_program();
  ASSERT_EQ(cp.total_accesses(), 6912u);
  // 0, inside the first run group, on a group boundary, mid-group later.
  for (const std::uint64_t limit : {0u, 1u, 5u, 48u, 1001u}) {
    int rc = -1;
    const std::string out =
        capture("trace " + program_file() + " --set N=12 --limit " +
                    std::to_string(limit),
                rc);
    EXPECT_EQ(rc, 0) << "limit " << limit;
    EXPECT_EQ(out, expected_trace(cp, limit)) << "limit " << limit;
  }
}

TEST(CliTrace, LimitAtOrAboveTheTotalPrintsNoTail) {
  const auto cp = trace_program();
  for (const std::uint64_t limit :
       {cp.total_accesses(), cp.total_accesses() + 10}) {
    int rc = -1;
    const std::string out =
        capture("trace " + program_file() + " --set N=12 --limit " +
                    std::to_string(limit),
                rc);
    EXPECT_EQ(rc, 0) << "limit " << limit;
    EXPECT_EQ(out.find("more)"), std::string::npos) << "limit " << limit;
    EXPECT_EQ(out, expected_trace(cp, limit)) << "limit " << limit;
  }
}

TEST(CliTrace, NegativeLimitIsAUsageError) {
  int rc = -1;
  const std::string out = capture(
      "trace " + program_file() + " --set N=12 --limit -1", rc);
  EXPECT_EQ(rc, 1);
  EXPECT_TRUE(out.empty()) << out;
}

TEST(CliCapacity, MissesAndAdviseRejectANonPositiveCapacity) {
  for (const std::string verb : {"misses", "advise"}) {
    for (const std::string cap : {"0", "-3"}) {
      int rc = -1;
      const std::string err = capture_stderr(
          verb + " " + program_file() + " --set N=8 --cap " + cap, rc);
      EXPECT_EQ(rc, 1) << verb << " --cap " << cap;
      EXPECT_NE(err.find("--cap must be at least 1"), std::string::npos)
          << verb << " --cap " << cap << ": " << err;
      EXPECT_EQ(err.find("Precondition"), std::string::npos) << err;
    }
  }
}

TEST(CliCapacity, LintRejectsANegativeCapacityAndTakesZeroAsNone) {
  int rc = -1;
  const std::string err =
      capture_stderr("lint " + program_file() + " --set N=8 --cap -3", rc);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("--cap must be at least 0"), std::string::npos) << err;

  const std::string out =
      capture("lint " + program_file() + " --set N=8 --cap 0", rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("error(s)"), std::string::npos) << out;
}

TEST(CliSet, RepeatedSetBindsEverySymbol) {
  const std::string path =
      (fs::temp_directory_path() /
       ("sdlo_cli_set_prog_" + std::to_string(::getpid()) + ".sdlo"))
          .string();
  {
    std::ofstream out(path);
    out << "for i<NI>, j<NJ> {\n  S1: A[i,j] += B[j,i]\n}\n";
  }
  int rc = -1;
  const std::string positional =
      capture("sweep " + path + " NI=12 NJ=5 --json", rc);
  ASSERT_EQ(rc, 0);
  const std::string flags =
      capture("sweep " + path + " --set NI=12 --set NJ=5 --json", rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(flags, positional);
  // Mixed forms bind too, and the later binding of a name wins.
  const std::string mixed = capture(
      "sweep " + path + " --set NI=3 NJ=5 --set=NI=12 --json", rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(mixed, positional);
  const std::string err =
      capture_stderr("sweep " + path + " --set NJ=5 --json", rc);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("NI"), std::string::npos) << err;
  fs::remove(path);
}

TEST(CliThreads, OutOfRangeThreadsIsAUsageError) {
  // 257 is one past the cap: with the check missing it would start 257
  // threads, few enough to be harmless.
  for (const std::string threads : {"0", "-1", "257"}) {
    int rc = -1;
    const std::string err = capture_stderr(
        "sweep " + program_file() + " --set N=8 --threads " + threads, rc);
    EXPECT_EQ(rc, 1) << "--threads " << threads;
    EXPECT_NE(err.find("--threads must be between 1 and 256"),
              std::string::npos)
        << "--threads " << threads << ": " << err;
  }
  EXPECT_EQ(run_sweep("", "--threads 256 --json"), 0);
}

TEST(CliBudget, NegativeOrWrappingBudgetFlagIsAUsageError) {
  // Taken as given, a negative value would turn its flag off and a budget
  // above 2^43 MB would wrap its byte count, so each would run ungoverned.
  // serve checks them before it binds a socket.
  struct Case {
    std::string args, message;
  };
  const std::string sweep = "sweep " + program_file() + " --set N=8 ";
  for (const Case& c :
       {Case{sweep + "--mem-budget -5", "--mem-budget must be between 0 and"},
        Case{sweep + "--mem-budget 8796093022209",
             "--mem-budget must be between 0 and"},
        Case{sweep + "--deadline -1", "--deadline must be at least 0"},
        Case{sweep + "--deadline nan", "--deadline must be at least 0"},
        Case{"serve --socket " + unique_path("sdlo_cli_budget") +
                 " --mem-budget -5",
             "--mem-budget must be between 0 and"}}) {
    int rc = -1;
    const std::string err = capture_stderr(c.args, rc, "timeout 10 ");
    EXPECT_EQ(rc, 1) << c.args;
    EXPECT_NE(err.find(c.message), std::string::npos)
        << c.args << ": " << err;
  }
  EXPECT_EQ(run_sweep("", "--mem-budget 8796093022208 --json"), 0);
  EXPECT_EQ(run_sweep("", "--deadline 0 --mem-budget 0 --json"), 0);
}

TEST(CliLine, NonPowerOfTwoLineIsAUsageError) {
  // 0 and negative sizes once looped in the sweep's capacity ladder until
  // memory ran out, and lint and advise took them as "no line"; timeout
  // turns such a regression into a failure.
  for (const std::string verb : {"sweep", "lint", "advise"}) {
    for (const std::string line : {"0", "-8", "3"}) {
      int rc = -1;
      const std::string err = capture_stderr(
          verb + " " + program_file() + " --set N=16 --line " + line, rc,
          "timeout 10 ");
      EXPECT_EQ(rc, 1) << verb << " --line " << line;
      EXPECT_NE(err.find("--line must be a positive power of two"),
                std::string::npos)
          << verb << " --line " << line << ": " << err;
      EXPECT_EQ(err.find(".cpp"), std::string::npos) << err;
    }
  }
}

/// The program file's text, for daemon requests.
std::string program_text() {
  std::ifstream in(program_file());
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One daemon request for `verb` on the program at N=`n`; `extra` holds
/// further members, each with its leading comma.
std::string daemon_request(const std::string& verb,
                           const std::string& extra = "",
                           std::int64_t n = 16) {
  return "{\"id\":1,\"verb\":\"" + verb + "\",\"program\":\"" +
         sdlo::serve::json_escape(program_text()) + "\",\"env\":{\"N\":" +
         std::to_string(n) + "}" + extra + "}";
}

TEST(CliServeParity, AnOutOfRangeKnobIsTheSameErrorFromBothFrontDoors) {
  struct Case {
    std::string verb, knob, value;
  };
  const std::vector<Case> cases = {
      {"misses", "cap", "0"},  {"misses", "cap", "-5"},
      {"advise", "cap", "0"},  {"advise", "cap", "-5"},
      {"lint", "cap", "-5"},   {"sweep", "line", "0"},
      {"sweep", "line", "-8"}, {"sweep", "line", "3"},
      {"lint", "line", "0"},   {"lint", "line", "-8"},
      {"lint", "line", "3"},   {"advise", "line", "0"},
      {"advise", "line", "-8"}, {"advise", "line", "3"},
      {"advise", "top", "-1"},
  };
  sdlo::serve::Service service;
  for (const Case& c : cases) {
    const std::string what = c.verb + " " + c.knob + " " + c.value;
    int rc = -1;
    const std::string err = capture_stderr(
        c.verb + " " + program_file() + " --set N=16 --" + c.knob + " " +
            c.value,
        rc, "timeout 10 ");
    EXPECT_EQ(rc, 1) << what;
    const sdlo::serve::Response resp = service.handle_line(daemon_request(
        c.verb, ",\"" + c.knob + "\":" + c.value));
    EXPECT_EQ(resp.status, sdlo::serve::Status::kError) << what;
    EXPECT_TRUE(resp.payload.empty()) << what << ": " << resp.payload;
    EXPECT_FALSE(resp.error.empty()) << what;
    EXPECT_EQ(err, "sdlo: " + resp.error + "\n") << what;
  }
}

TEST(CliServeParity, FlaglessJsonIsTheDaemonPayload) {
  sdlo::serve::Service service;
  for (const std::string verb :
       {"analyze", "misses", "sweep", "lint", "advise"}) {
    int rc = -1;
    const std::string out =
        capture(verb + " " + program_file() + " --set N=16 --json", rc);
    const sdlo::serve::Response resp =
        service.handle_line(daemon_request(verb));
    EXPECT_EQ(rc, sdlo::serve::status_exit_code(resp.status)) << verb;
    ASSERT_FALSE(resp.payload.empty()) << verb << ": " << resp.error;
    EXPECT_EQ(out, resp.payload + "\n") << verb;
  }
}

TEST(ServeService, BudgetBelowTheStackTablesTruncatesLikeTheCli) {
  // At N=200 the matmul footprint is 120,000 lines, whose stack tables
  // (13 bytes a line) outgrow a 1 MB budget: the CLI and the daemon both
  // answer the walk's truncated empty prefix, at once, with the same
  // bytes. A truncated payload reflects this request's budget, so the
  // repeat is computed again, not served from the memo cache.
  int rc = -1;
  const std::string out =
      capture("sweep " + program_file() +
                  " --set N=200 --json --mem-budget 1 --engine simulate",
              rc);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("\"accesses\":0,\"completeness\":\"truncated\""),
            std::string::npos)
      << out;
  sdlo::serve::ServiceOptions opts;
  opts.memory_budget_bytes = std::uint64_t{1} << 20;
  sdlo::serve::Service service(opts);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const sdlo::serve::Response resp =
        service.handle_line(
            daemon_request("sweep", ",\"engine\":\"simulate\"", 200));
    EXPECT_EQ(resp.status, sdlo::serve::Status::kTruncated)
        << attempt << ": " << resp.error;
    EXPECT_FALSE(resp.cached) << attempt;
    EXPECT_EQ(out, resp.payload + "\n") << attempt;
  }
  EXPECT_EQ(service.cache().stats().hits, 0u);
}

TEST(CliPlannedSweep, TheModelAnswersLongTracesOnBothFrontDoors) {
  // N=64 is 2^20 accesses: a flagless sweep has the model count it and
  // prints the walk's document, and the daemon answers a request naming
  // no engine with the CLI's bytes. Only the text table says which engine
  // counted.
  int rc = -1;
  const std::string out =
      capture("sweep " + program_file() + " --set N=64 --json", rc);
  EXPECT_EQ(rc, 0);
  const std::string walked = capture(
      "sweep " + program_file() + " --set N=64 --json --engine simulate", rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(walked.find("\"engine\":\"simulated\",\"fell_back\":false"),
            std::string::npos)
      << walked;
  EXPECT_EQ(out, walked);
  sdlo::serve::Service service;
  const sdlo::serve::Response resp =
      service.handle_line(daemon_request("sweep", "", 64));
  EXPECT_EQ(resp.status, sdlo::serve::Status::kOk) << resp.error;
  EXPECT_EQ(out, resp.payload + "\n");
  const std::string text =
      capture("sweep " + program_file() + " --set N=64", rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(text.find("engine: simulated (counted by the exact model"),
            std::string::npos)
      << text;

  // A spool tees the walk, so it walks.
  const std::string path = unique_path("sdlo_cli_planned");
  const std::string spooled = capture(
      "sweep " + program_file() + " --set N=64 --json --spool " + path, rc);
  EXPECT_EQ(rc, 0);
  fs::remove(path);
  EXPECT_EQ(without_spool_member(spooled), walked);
  const std::string spooled_text = capture(
      "sweep " + program_file() + " --set N=64 --spool " + path, rc);
  EXPECT_EQ(rc, 0);
  fs::remove(path);
  EXPECT_EQ(spooled_text.find("counted by the exact model"),
            std::string::npos)
      << spooled_text;
}

TEST(CliBudget, TheModelsHistogramsAreChargedToTheBudget) {
  // At N=100000 the matmul's B partition holds about N distinct depths,
  // more than 1 MB of histogram entries: --engine symbolic stops at the
  // denied block and answers the partitions it finished, exit 2. A
  // flagless sweep then walks, and its stack tables are denied too: it
  // answers the walk's truncated empty prefix, as --engine simulate
  // does. At N=200 the histograms fit, so the model counts the flagless
  // sweep complete under the same budget.
  int rc = -1;
  const std::string big = capture(
      "sweep " + program_file() +
          " --set N=100000 --json --mem-budget 1 --engine symbolic",
      rc, "2>/dev/null", "timeout 60 ");
  EXPECT_EQ(rc, 2) << big;
  EXPECT_NE(big.find("\"engine\":\"symbolic\""), std::string::npos) << big;
  EXPECT_NE(big.find("\"completeness\":\"truncated\""), std::string::npos)
      << big;
  const std::string planned = capture(
      "sweep " + program_file() + " --set N=100000 --json --mem-budget 1",
      rc, "2>/dev/null", "timeout 60 ");
  EXPECT_EQ(rc, 2) << planned;
  EXPECT_NE(planned.find("\"accesses\":0,\"completeness\":\"truncated\""),
            std::string::npos)
      << planned;
  const std::string walked = capture(
      "sweep " + program_file() +
          " --set N=100000 --json --mem-budget 1 --engine simulate",
      rc, "2>/dev/null", "timeout 60 ");
  EXPECT_EQ(rc, 2) << walked;
  EXPECT_EQ(planned, walked);
  const std::string small = capture(
      "sweep " + program_file() + " --set N=200 --mem-budget 1", rc);
  EXPECT_EQ(rc, 0) << small;
  EXPECT_NE(small.find("counted by the exact model"), std::string::npos)
      << small;
  EXPECT_EQ(small.find("TRUNCATED"), std::string::npos) << small;
}

TEST(CliServeParity, OverflowingBindingsAreAWF007ErrorFromBothFrontDoors) {
  // At N=2000000 the matmul trace has 2.4e19 accesses: the verifier's size
  // check must answer before a driver's int64 arithmetic overflows. At
  // N<=0 no loop runs: WF009 must answer before a driver counts negative
  // accesses or the walker's extent check fires.
  struct Case {
    std::string verb, flags, members;
    std::int64_t n;
    std::string rule;
  };
  const std::vector<Case> cases = {
      {"misses", "--cap 8192", ",\"cap\":8192", 2000000, "WF007"},
      {"sweep", "--engine symbolic", ",\"engine\":\"symbolic\"", 2000000,
       "WF007"},
      {"advise", "--cap 8192", ",\"cap\":8192", 2000000, "WF007"},
      {"sweep", "", "", 0, "WF009"},
      {"sweep", "--engine symbolic", ",\"engine\":\"symbolic\"", 0,
       "WF009"},
      {"misses", "--cap 8", ",\"cap\":8", -3, "WF009"},
      {"advise", "", "", -3, "WF009"},
  };
  sdlo::serve::Service service;
  for (const Case& c : cases) {
    const std::string what = c.verb + " " + c.flags + " N=" +
                             std::to_string(c.n);
    int rc = -1;
    const std::string err = capture_stderr(
        c.verb + " " + program_file() + " --set N=" + std::to_string(c.n) +
            " " + c.flags,
        rc, "timeout 10 ");
    EXPECT_EQ(rc, 1) << what;
    EXPECT_EQ(err.rfind("sdlo: " + c.rule + ": ", 0), 0u) << what << ": "
                                                         << err;
    EXPECT_EQ(err.find("Check failed"), std::string::npos) << err;
    const sdlo::serve::Response resp =
        service.handle_line(daemon_request(c.verb, c.members, c.n));
    EXPECT_EQ(resp.status, sdlo::serve::Status::kError) << what;
    EXPECT_EQ(err, "sdlo: " + resp.error + "\n") << what;
  }
}

TEST(CliSpool, CleanupOfProgramFile) {
  // Not a behavior test: removes the shared temp program after the suite.
  std::error_code ec;
  fs::remove(program_file(), ec);
}

}  // namespace
