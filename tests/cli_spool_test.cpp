// End-to-end regressions for `sdlo sweep`: one driver answers with and
// without --threads and --spool, so the JSON is the same bytes either way
// (apart from the kept spool's own member); the tee spool must survive
// exactly the runs that generated every group, and every failure or
// truncation path — injected pool faults, injected spool-write faults, an
// expired deadline — must leave neither the destination file nor its .tmp
// sibling behind (the RAII guard + temp-and-rename contract). These run the
// real binary as a subprocess so the cleanup is exercised through process
// exit, not just stack unwind.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "trace/spool.hpp"

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

/// Runs `sdlo sweep prog --set N=48 extra_flags --json` and returns its
/// stdout (empty when the process failed).
std::string sweep_json(const std::string& extra) {
  const std::string cmd = "\"" + std::string(SDLO_CLI_PATH) + "\" sweep " +
                          program_file() + " --set N=48 --json " + extra +
                          " 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  return ::pclose(pipe) == 0 ? out : "";
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

TEST(CliSpool, CleanupOfProgramFile) {
  // Not a behavior test: removes the shared temp program after the suite.
  std::error_code ec;
  fs::remove(program_file(), ec);
}

}  // namespace
