// Shared types of the end-to-end benchmark (bench/e2e/README.md).
//
// sdlo_bench measures sdlo from the outside: the `sdlo` binary run as child
// processes, and the `sdlo serve` daemon driven over its Unix socket. A
// separate traced run (--trace-events) replays the same work in-process
// through each module's public functions to give per-layer numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "symbolic/expr.hpp"

namespace sdlo_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// How long the timed phase keeps starting new rounds.
  double seconds = 25;
  /// --scale smoke: tiny inputs, one round (the ctest smoke test).
  bool smoke = false;
  /// Non-empty: the traced run, writing Chrome trace-event JSON here.
  std::string trace_events;
  /// Non-empty: the full result record (host, per-job detail) goes here.
  std::string out;
};

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/// What one run produced: the contract line plus detail for --out.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every check that did not hold, one line each.
  std::vector<std::string> problems;
  Metrics metrics;
  /// JSON object members (already rendered) added to the --out record.
  std::vector<std::pair<std::string, std::string>> detail;

  bool correct() const { return failed == 0 && problems.empty(); }
  void fail(const std::string& why) {
    ++failed;
    problems.push_back(why);
  }
};

/// One sdlo invocation: a CLI job, or the same question as a daemon
/// request.
struct Job {
  std::string id;       ///< unique within the workload, e.g. "sweep mt#1"
  std::string cls;      ///< job class for geomeans (serve-mix verb mix)
  std::string verb;     ///< analyze | misses | sweep | advise | lint
  std::string program;  ///< textual IR
  std::string file;     ///< program file name inside the run directory
  sdlo::sym::Env env;
  std::int64_t line = 1;   ///< sweep line size (elements)
  std::int64_t cap = -1;   ///< misses/advise/lint capacity; -1 = default
  std::string engine;      ///< sweep: "" (simulate) or "symbolic"
  int threads = 1;         ///< sweep --threads
  bool spool = false;      ///< sweep --spool (tee file per repetition)

  /// Arguments after the binary name; `spool_path` fills --spool.
  std::vector<std::string> cli_args(const std::string& spool_path = "") const;
  /// The equivalent daemon request line (no trailing newline).
  std::string request_line(std::uint64_t id_num) const;
};

/// Path of the sdlo binary the benchmark drives.
const char* sdlo_path();

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double>& v);

// --- host speed ------------------------------------------------------------

/// The probe's time at the reference speed: roughly its time on a calm
/// 4-core host of the kind this benchmark was written on.
inline constexpr double kProbeReferenceSeconds = 0.010;

/// Runs the host-speed probe once and returns its seconds (README.md,
/// "Host-speed scaling"): a fixed sequence of 2 million random
/// read-modify-writes over a 4 MiB table. Call it only while no sdlo
/// process runs.
double time_host_probe();

/// States a timed run's end-to-end metrics at reference speed: times (units
/// s and ms) are multiplied by kProbeReferenceSeconds over the median of
/// `probe_seconds`, and rates (1/s) divided by it. The measured values and
/// the probe go to oc.detail.
void scale_to_reference(const std::vector<double>& probe_seconds,
                        Outcome& oc);

// --- small utilities -------------------------------------------------------

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& data);
/// FNV-1a 64 over a byte string / a file's bytes.
std::uint64_t fnv1a(const std::string& bytes);
std::uint64_t fnv1a_file(const std::string& path);
/// Shortest round-trip decimal form of a double (JSON number).
std::string num(double v);
/// `s` as a JSON string literal.
std::string quote(const std::string& s);
/// Raw bytes of top-level member `key` of a JSON object ("" if absent or
/// the text does not parse).
std::string json_member(const std::string& object, const std::string& key);
/// Strips one trailing newline.
std::string chomp(std::string s);

/// The host record every output carries: nproc, cache sizes, SIMD tier,
/// compiler, build type, plus the run's workload and seed.
std::string host_record_json(const Options& opt);
int host_nproc();

}  // namespace sdlo_bench
