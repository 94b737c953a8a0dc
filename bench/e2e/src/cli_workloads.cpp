#include "cli_workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "ir/parser.hpp"
#include "serve/json.hpp"
#include "support/check.hpp"

namespace sdlo_bench {

namespace {

using sdlo::serve::JsonValue;

/// Traces above this many accesses are checked against the symbolic curve
/// instead of `sdlo misses --simulate` (matmul N=1024 has 2^32).
constexpr std::int64_t kSimulateLimit = std::int64_t{1} << 26;

std::optional<JsonValue> parse(const std::string& text) {
  try {
    return sdlo::serve::parse_json(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Integer at `path` (object keys) inside the JSON document `text`.
std::optional<std::int64_t> int_at(const std::string& text,
                                   const std::vector<std::string>& path) {
  const std::optional<JsonValue> doc = parse(text);
  if (!doc) return std::nullopt;
  const JsonValue* v = &*doc;
  for (const std::string& key : path) {
    v = v->find(key);
    if (v == nullptr) return std::nullopt;
  }
  if (v->kind() != JsonValue::Kind::kInt) return std::nullopt;
  return v->as_int(path.back());
}

/// Misses of the sweep row at `capacity` in a "rows" array.
std::optional<std::int64_t> misses_at(const std::string& rows,
                                      std::int64_t capacity) {
  const std::optional<JsonValue> doc = parse(rows);
  if (!doc || !doc->is_array()) return std::nullopt;
  for (const JsonValue& row : doc->as_array("rows")) {
    const JsonValue* c = row.find("capacity");
    const JsonValue* m = row.find("misses");
    if (c != nullptr && m != nullptr && c->as_int("capacity") == capacity) {
      return m->as_int("misses");
    }
  }
  return std::nullopt;
}

std::int64_t total_accesses(const Job& j) {
  const sdlo::ir::Program p = sdlo::ir::parse_program(j.program);
  return sdlo::sym::evaluate(p.total_accesses(), j.env);
}

std::vector<std::string> with_simulate(std::vector<std::string> args) {
  args.insert(args.end() - 1, "--simulate");  // before the final --json
  return args;
}

/// What a job's output must match, computed once per run, untimed.
struct Reference {
  std::string rows;                    ///< sweeps: exact "rows" bytes
  std::optional<std::int64_t> misses;  ///< misses / advise baseline
  std::string source;                  ///< the command that produced it
};

std::string describe(const std::vector<std::string>& args) {
  std::string s = "sdlo";
  for (const std::string& a : args) s += " " + a;
  return s;
}

/// Runs a reference command; a failure is reported and leaves the
/// reference empty, so every check against it fails too.
std::optional<std::string> reference_output(
    const std::vector<std::string>& args, Outcome& oc) {
  const ChildResult r = run_sdlo(args);
  if (r.exit_code != 0) {
    oc.problems.push_back("reference failed (exit " +
                          std::to_string(r.exit_code) + "): " +
                          describe(args) + ": " + r.err);
    return std::nullopt;
  }
  return chomp(r.out);
}

Reference make_reference(const Job& j, Outcome& oc) {
  Reference ref;
  if (j.verb == "sweep") {
    // Line-1 curves against the symbolic engine; line-granular curves
    // against the other CLI sweep path; symbolic curves against the
    // 4-thread streamed engine.
    Job other = j;
    other.spool = false;
    if (j.engine == "symbolic") {
      other.engine.clear();
      other.threads = 4;
    } else if (j.line == 1) {
      other.engine = "symbolic";
      other.threads = 1;
    } else {
      other.threads = j.threads > 1 ? 1 : 4;
    }
    const auto args = other.cli_args();
    ref.source = describe(args);
    if (const auto out = reference_output(args, oc)) {
      ref.rows = json_member(*out, "rows");
    }
    return ref;
  }
  const std::int64_t cap = j.cap >= 0 ? j.cap : 8192;
  if (j.verb == "misses" && total_accesses(j) > kSimulateLimit) {
    Job sym = j;
    sym.verb = "sweep";
    sym.engine = "symbolic";
    const auto args = sym.cli_args();
    ref.source = describe(args);
    if (const auto out = reference_output(args, oc)) {
      ref.misses = misses_at(json_member(*out, "rows"), cap);
    }
    return ref;
  }
  Job sim = j;
  sim.verb = "misses";
  sim.cap = cap;
  const auto args = with_simulate(sim.cli_args());
  ref.source = describe(args);
  if (const auto out = reference_output(args, oc)) {
    ref.misses = int_at(*out, {"simulated_misses"});
  }
  return ref;
}

/// Empty when the job's output matches its reference, else the problem.
std::string check_output(const Job& j, const ChildResult& r,
                         const Reference& ref) {
  if (r.exit_code != 0) {
    return "exit " + std::to_string(r.exit_code) + ": " + r.err;
  }
  const std::string out = chomp(r.out);
  if (j.verb == "sweep") {
    const std::string rows = json_member(out, "rows");
    if (rows.empty() || rows != ref.rows) {
      return "rows differ from " + ref.source;
    }
    return "";
  }
  const std::optional<std::int64_t> got =
      j.verb == "advise" ? int_at(out, {"baseline", "misses"})
                         : int_at(out, {"predicted_misses"});
  if (!got || !ref.misses || *got != *ref.misses) {
    return "misses " + (got ? std::to_string(*got) : std::string("?")) +
           " differ from " + ref.source;
  }
  return "";
}

}  // namespace

ChildResult run_sdlo(const std::vector<std::string>& args) {
  std::vector<std::string> argv{sdlo_path()};
  argv.insert(argv.end(), args.begin(), args.end());
  return run_child(argv);
}

Outcome run_cli_workload(const Options& opt, const Workload& w) {
  Outcome oc;
  write_program_files(w.jobs);

  std::vector<Reference> refs;
  for (const Job& j : w.jobs) refs.push_back(make_reference(j, oc));

  const std::size_t n = w.jobs.size();
  std::vector<std::vector<double>> samples(n);
  std::vector<std::uint64_t> spool_hash(n, 0);
  std::vector<std::uintmax_t> spool_bytes(n, 0);
  long peak_rss_kb = 0;
  std::vector<double> setup;  // `sdlo --version` spawn-to-exit times
  std::vector<double> probe;  // host-speed probe times
  const auto start = Clock::now();
  // Jobs run in rounds, in order. Each is preceded by one host-speed probe,
  // taken while no sdlo process runs, and followed by one `sdlo --version`
  // (the set-up time), so probes, jobs and set-up samples span the same
  // stretch of the host's speed. The time limit is checked before each
  // job, so every job runs at least once and a run overshoots --seconds by
  // at most one job.
  for (std::size_t op = 0;
       op < n || (!opt.smoke &&
                  seconds_between(start, Clock::now()) < opt.seconds);
       ++op) {
    const std::size_t k = op % n;
    const Job& j = w.jobs[k];
    const std::string spool = "spool-" + std::to_string(k) + ".bin";
    probe.push_back(time_host_probe());
    const ChildResult r = run_sdlo(j.cli_args(spool));
    const ChildResult version = run_sdlo({"--version"});
    oc.attempted += 2;
    if (version.exit_code != 0 || version.out.empty()) {
      oc.fail("sdlo --version exited " + std::to_string(version.exit_code));
    }
    setup.push_back(version.seconds);
    const bool first = samples[k].empty();
    samples[k].push_back(r.seconds);
    peak_rss_kb = std::max(peak_rss_kb, r.maxrss_kb);
    std::string problem = check_output(j, r, refs[k]);
    if (problem.empty() && j.spool) {
      // The tee must produce the same bytes on every repetition.
      std::error_code ec;
      const std::uintmax_t bytes = std::filesystem::file_size(spool, ec);
      const std::uint64_t h = ec ? 0 : fnv1a_file(spool);
      if (ec) {
        problem = "no spool file written";
      } else if (first) {
        spool_hash[k] = h;
        spool_bytes[k] = bytes;
      } else if (h != spool_hash[k] || bytes != spool_bytes[k]) {
        problem = "spool bytes differ from the first repetition";
      }
      std::filesystem::remove(spool, ec);
    }
    if (!problem.empty()) oc.fail(j.id + ": " + problem);
  }

  std::vector<double> job_medians;
  std::string jobs_json = "[";
  double op_seconds = 0;
  std::size_t ops = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double m = median(samples[k]);
    job_medians.push_back(m);
    ops += samples[k].size();
    for (const double s : samples[k]) op_seconds += s;
    std::string s = "[";
    for (const double x : samples[k]) s += (s.size() > 1 ? "," : "") + num(x);
    jobs_json += (k == 0 ? "" : ",") + std::string("{\"id\":") +
                 quote(w.jobs[k].id) + ",\"command\":" +
                 quote(describe(w.jobs[k].cli_args("spool.bin"))) +
                 ",\"median_s\":" + num(m) + ",\"samples_s\":" + s + "]" +
                 ",\"reference\":" + quote(refs[k].source) +
                 (w.jobs[k].spool
                      ? ",\"spool_bytes\":" + std::to_string(spool_bytes[k])
                      : std::string()) +
                 "}";
  }
  jobs_json += "]";

  double wall = 0;
  std::vector<double> ms;
  for (const double m : job_medians) {
    wall += m;
    ms.push_back(m * 1000.0);
  }
  oc.metrics["setup_s"] = {median(setup), "s"};
  oc.metrics["wall_s"] = {wall, "s"};
  oc.metrics["job_geomean_ms"] = {geomean(ms), "ms"};
  oc.metrics["peak_rss_mb"] = {static_cast<double>(peak_rss_kb) / 1024.0,
                               "MB"};
  oc.metrics["throughput_rps"] = {
      op_seconds > 0 ? static_cast<double>(ops) / op_seconds : 0,
      "1/s"};
  // A CLI run has too few ops for a 99th percentile with ten samples
  // beyond it, and its jobs come in a few sizes, so the latencies are
  // taken over per-job medians: the typical job, and the slowest job.
  oc.metrics["latency_p50_ms"] = {median(ms), "ms"};
  oc.metrics["latency_p99_ms"] = {*std::max_element(ms.begin(), ms.end()),
                                  "ms"};
  scale_to_reference(probe, oc);
  oc.detail.emplace_back("ops", std::to_string(ops));
  oc.detail.emplace_back("jobs", jobs_json);
  return oc;
}

}  // namespace sdlo_bench
