// sdlo_bench — the end-to-end benchmark of sdlo (bench/e2e/README.md).
//
//   sdlo_bench --workload W --seed S [--seconds T] [--scale smoke]
//              [--trace-events FILE] [--out FILE]
//
// W is sweep-default, sweep-parallel, model or serve-mix. Without
// --trace-events the run measures the end-to-end metrics with tracing off;
// with it, the run is the traced replay that measures the per-layer
// metrics and writes a Chrome trace-event file. Either way the last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Scratch files live in a private
// directory under $TMPDIR that is removed at exit.
#include <unistd.h>

#include <filesystem>
#include <iostream>

#include "cli_workloads.hpp"
#include "common.hpp"
#include "inputs.hpp"
#include "serve_session.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "traced.hpp"

namespace {

using namespace sdlo_bench;
namespace fs = std::filesystem;

/// A private scratch directory under $TMPDIR, made the working directory
/// for the run (program files, spools, the daemon socket) and removed at
/// exit.
class RunDir {
 public:
  RunDir() : home_(fs::current_path()) {
    const char* tmp = std::getenv("TMPDIR");
    const fs::path base = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
    dir_ = base / ("sdlo_bench." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fs::current_path(dir_);
  }
  ~RunDir() {
    std::error_code ec;
    fs::current_path(home_, ec);
    fs::remove_all(dir_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

 private:
  fs::path home_;
  fs::path dir_;
};

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  for (const auto& [name, metric] : m) {
    s += (s.size() > 1 ? "," : "") + quote(name) + ":{\"value\":" +
         num(metric.value) + ",\"unit\":" + quote(metric.unit) + "}";
  }
  return s + "}";
}

std::string record_json(const Options& opt, const Outcome& oc) {
  std::string problems = "[";
  for (const std::string& p : oc.problems) {
    problems += (problems.size() > 1 ? "," : "") + quote(p);
  }
  problems += "]";
  std::string s = "{\"host\":" + host_record_json(opt) +
                  ",\"workload\":" + quote(opt.workload) +
                  ",\"seed\":" + std::to_string(opt.seed) +
                  ",\"traced\":" +
                  (opt.trace_events.empty() ? "false" : "true") +
                  ",\"seconds\":" + num(opt.seconds) +
                  ",\"correct\":" + (oc.correct() ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(oc.attempted) +
                  ",\"failed\":" + std::to_string(oc.failed) +
                  ",\"problems\":" + problems +
                  ",\"metrics\":" + metrics_json(oc.metrics);
  for (const auto& [key, value] : oc.detail) {
    s += "," + quote(key) + ":" + value;
  }
  return s + "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    sdlo::CommandLine cli(argc, argv);
    cli.flag("workload", "sweep-default | sweep-parallel | model | serve-mix")
        .flag("seed", "input seed (default 1)")
        .flag("seconds", "timed phase length in seconds (default 25)")
        .flag("scale", "full (default) or smoke: tiny inputs, one round")
        .flag("trace-events",
              "traced run: per-layer metrics, Chrome trace JSON to FILE")
        .flag("out", "write the full result record (JSON) to FILE");
    if (!cli.finish()) return 0;
    Options opt;
    opt.workload = cli.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", 25);
    const std::string scale = cli.get_string("scale", "full");
    if (scale != "full" && scale != "smoke") {
      throw sdlo::Error("--scale must be full or smoke");
    }
    opt.smoke = scale == "smoke";
    // Output paths are resolved before the run moves into its scratch dir.
    opt.trace_events = cli.get_string("trace-events", "");
    opt.out = cli.get_string("out", "");
    if (!opt.trace_events.empty()) {
      opt.trace_events = fs::absolute(opt.trace_events).string();
    }
    if (!opt.out.empty()) opt.out = fs::absolute(opt.out).string();
    const Workload w = make_workload(opt.workload, opt.seed, opt.smoke);

    const std::string host = host_record_json(opt);
    std::cout << "host " << host << "\n";
    if (host_nproc() < 4) {
      std::cerr << "warning: " << host_nproc()
                << " cores: --threads 4 and 4 daemon workers measure the "
                   "scheduler here, not parallel speedup\n";
    }

    Outcome oc;
    {
      const RunDir dir;
      oc = !opt.trace_events.empty() ? run_traced(opt, w)
           : w.is_serve()            ? run_serve_workload(opt, w)
                                     : run_cli_workload(opt, w);
    }
    if (!opt.out.empty()) write_file(opt.out, record_json(opt, oc));

    for (const auto& [name, m] : oc.metrics) {
      std::cerr << "  " << name << " = " << num(m.value) << " " << m.unit
                << "\n";
    }
    for (std::size_t i = 0; i < oc.problems.size() && i < 20; ++i) {
      std::cerr << "FAILED: " << oc.problems[i] << "\n";
    }
    std::cout << "{\"correct\":" << (oc.correct() ? "true" : "false")
              << ",\"attempted\":" << oc.attempted
              << ",\"failed\":" << oc.failed
              << ",\"metrics\":" << metrics_json(oc.metrics) << "}"
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sdlo_bench: " << e.what() << "\n";
    return 1;
  }
}
