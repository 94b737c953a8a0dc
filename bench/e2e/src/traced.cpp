#include "traced.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/advisor.hpp"
#include "analysis/dependence.hpp"
#include "analysis/lint.hpp"
#include "analysis/misses_driver.hpp"
#include "analysis/sweep_driver.hpp"
#include "cachesim/parallel_stack.hpp"
#include "cachesim/sim.hpp"
#include "cli_workloads.hpp"
#include "ir/parser.hpp"
#include "model/analyzer.hpp"
#include "model/symbolic_sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "serve_session.hpp"
#include "support/check.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace sdlo_bench {

namespace {

namespace ir = sdlo::ir;
namespace trace = sdlo::trace;
namespace cachesim = sdlo::cachesim;
namespace model = sdlo::model;
namespace analysis = sdlo::analysis;

/// Distinct requests of serve-mix replayed in-process (and through the
/// CLI): enough to cover every verb many times, few enough to keep the
/// trace file small.
constexpr std::size_t kMaxServeReplays = 256;

// --- spans -----------------------------------------------------------------

struct Span {
  std::string name;  ///< "layer.operation"
  std::string job;
  double t0 = 0, t1 = 0;  ///< seconds since the run's origin
  int parent = -1;        ///< index of the enclosing span
  int tid = 1;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(const std::string& name) {
    Span s;
    s.name = name;
    s.job = job_;
    s.parent = open_.empty() ? -1 : open_.back();
    s.t0 = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now();
    open_.pop_back();
  }

  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.t1 - s.t0;
  }

  void add(Span s) { spans_.push_back(std::move(s)); }
  void set_job(std::string job) { job_ = std::move(job); }
  double now() const { return seconds_between(origin_, Clock::now()); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::string job_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// --- per-layer counters ------------------------------------------------------

/// Layer values that are not span durations, kept apart for the replay and
/// the panel so each metric can come from one source.
struct Counters {
  double accesses = 0, groups = 0;              // walk probes
  double spool_bytes = 0, spool_accesses = 0;   // spool-write probes
  double merge_s = 0, merge_wait_s = 0;         // 4-thread PartitionStats
  double chunks = 0, overlapped_merges = 0;
  double symbolic_calls = 0, symbolic_exact = 0;
  double advise_candidates = 0;
  double pair_predict_s = 0, pair_symbolic_s = 0;  // same program and env
};

struct Replay {
  Tracer& t;
  Counters& c;
  Outcome& oc;
};

std::vector<std::uint64_t> misses_of(
    const std::vector<cachesim::SimResult>& r) {
  std::vector<std::uint64_t> m;
  for (const auto& x : r) m.push_back(x.misses);
  return m;
}

std::string rows_json(const std::vector<std::int64_t>& caps,
                      const std::vector<std::uint64_t>& misses) {
  std::string s = "[";
  for (std::size_t i = 0; i < caps.size(); ++i) {
    s += (i == 0 ? "" : ",") + std::string("{\"capacity\":") +
         std::to_string(caps[i]) + ",\"misses\":" +
         std::to_string(misses[i]) + "}";
  }
  return s + "]";
}

std::vector<cachesim::SweepConfig> ladder_configs(
    const std::vector<std::int64_t>& caps, std::int64_t line) {
  std::vector<cachesim::SweepConfig> configs;
  for (const std::int64_t cap : caps) {
    configs.push_back({cap, line, 0, cachesim::Replacement::kLru});
  }
  return configs;
}

/// The trace engines on a trace job's input, but for the profiler when
/// the job itself ran it; every engine's curve must equal `expect`.
void trace_siblings(Replay& r, const Job& j, const trace::CompiledProgram& cp,
                    const std::vector<std::int64_t>& caps,
                    const std::vector<std::uint64_t>& expect,
                    bool ran_profile) {
  Scoped sib(r.t, "bench.siblings");
  const auto check = [&](const char* engine,
                         const std::vector<std::uint64_t>& got) {
    if (got != expect) r.oc.fail(j.id + ": " + engine + " curve differs");
  };
  {
    std::uint64_t accesses = 0;
    std::uint64_t groups = 0;
    {
      Scoped s(r.t, "trace.walk");
      cp.walk_runs([&](const trace::Run* g, std::size_t nrefs) {
        ++groups;
        accesses += g[0].count * nrefs;
      });
    }
    r.c.accesses += static_cast<double>(accesses);
    r.c.groups += static_cast<double>(groups);
  }
  {
    const std::string path = "probe.spool";
    {
      Scoped s(r.t, "trace.spool_write");
      trace::SpoolWriter writer(path);
      cp.walk_runs([&](const trace::Run* g, std::size_t nrefs) {
        writer.add_group(g, nrefs);
      });
      writer.finish(cp.num_sites(), cp.address_space_size());
    }
    r.c.spool_bytes += static_cast<double>(std::filesystem::file_size(path));
    r.c.spool_accesses += static_cast<double>(cp.total_accesses());
    std::filesystem::remove(path);
  }
  const auto configs = ladder_configs(caps, j.line);
  if (!ran_profile) {
    cachesim::ProfileResult prof;
    {
      Scoped s(r.t, "cachesim.profile");
      prof = cachesim::profile_stack_distances(cp, j.line);
    }
    std::vector<std::uint64_t> m;
    for (const std::int64_t cap : caps) m.push_back(prof.result(cap).misses);
    check("profiler", m);
  }
  {
    cachesim::StreamOptions so;
    so.partition.threads = 1;
    std::vector<cachesim::SimResult> res;
    {
      Scoped s(r.t, "cachesim.streamed_1t");
      res = cachesim::simulate_sweep_streamed(cp, configs, nullptr, so);
    }
    check("streamed 1-thread", misses_of(res));
  }
  {
    cachesim::PartitionStats stats;
    std::unique_ptr<sdlo::parallel::ThreadPool> pool;
    {
      Scoped s(r.t, "parallel.pool");
      pool = std::make_unique<sdlo::parallel::ThreadPool>(4);
    }
    cachesim::StreamOptions so;
    so.partition.threads = 4;
    so.partition.stats = &stats;
    std::vector<cachesim::SimResult> res;
    {
      Scoped s(r.t, "cachesim.streamed_4t");
      res = cachesim::simulate_sweep_streamed(cp, configs, pool.get(), so);
    }
    r.c.merge_s += stats.merge_seconds;
    r.c.merge_wait_s += stats.merge_wait_seconds;
    r.c.chunks += static_cast<double>(stats.chunks);
    r.c.overlapped_merges += static_cast<double>(stats.overlapped_merges);
    check("streamed 4-thread", misses_of(res));
  }
}

/// What the replay of one job printed: the full document, or only its
/// "rows" when the CLI adds fields the replay cannot reproduce (phase
/// timings, a fallback reason).
struct Printed {
  std::string text;
  bool rows_only = false;
};

Printed replay_sweep(Replay& r, const Job& j) {
  Printed out;
  std::optional<trace::CompiledProgram> cp;
  std::vector<std::int64_t> caps;
  std::vector<std::uint64_t> curve;
  bool walked = true;  // false when the exact symbolic engine answered
  bool ran_profile = false;
  {
    Scoped job(r.t, "bench.job");
    std::optional<ir::Program> prog;
    {
      Scoped s(r.t, "ir.parse");
      prog.emplace(ir::parse_program(j.program));
    }
    {
      Scoped s(r.t, "trace.compile");
      cp.emplace(*prog, j.env);
    }
    caps = analysis::sweep_ladder(j.line, cp->address_space_size());
    if (j.threads > 1) {
      // The CLI's pipelined path: the streamed engine on a pool, teeing a
      // spool. Its span is no metric; the tee-free engines run beside it,
      // so that parallel.speedup_4t compares like with like.
      std::unique_ptr<sdlo::parallel::ThreadPool> pool;
      {
        Scoped s(r.t, "parallel.pool");
        pool = std::make_unique<sdlo::parallel::ThreadPool>(j.threads);
      }
      cachesim::StreamOptions so;
      so.partition.threads = j.threads;
      const std::string path = "replay.spool";
      std::vector<cachesim::SimResult> res;
      {
        trace::SpoolWriter writer(path);
        so.tee = &writer;
        {
          Scoped s(r.t, "cachesim.streamed_tee");
          res = cachesim::simulate_sweep_streamed(
              *cp, ladder_configs(caps, j.line), pool.get(), so);
        }
        Scoped s(r.t, "trace.spool_finish");
        writer.finish(cp->num_sites(), cp->address_space_size());
      }
      std::filesystem::remove(path);
      curve = misses_of(res);
      Scoped s(r.t, "analysis.render");
      out.text = rows_json(caps, curve);
      out.rows_only = true;
    } else {
      analysis::SweepOutcome oc;
      oc.line_elems = j.line;
      oc.capacities = caps;
      bool exact = false;
      if (j.engine == "symbolic") {
        std::optional<model::Analysis> an;
        {
          Scoped s(r.t, "model.analyze");
          an.emplace(model::analyze(*prog));
        }
        std::optional<model::SymbolicSweep> sw;
        {
          Scoped s(r.t, "model.symbolic_sweep");
          sw.emplace(model::symbolic_sweep(*an, j.env));
        }
        r.c.symbolic_calls += 1;
        exact = sw->confidence == model::Confidence::kExact;
        if (exact) {
          walked = false;
          r.c.symbolic_exact += 1;
          oc.engine = "symbolic";
          oc.completeness = sw->completeness;
          oc.accesses = static_cast<std::uint64_t>(sw->accounted_accesses);
          oc.crossings = sw->crossing_points();
          for (const std::int64_t cap : caps) {
            oc.rows.push_back(sw->result_at(cap));
          }
        } else {
          oc.fell_back = true;
          oc.confidence = sw->confidence;
          out.rows_only = true;  // the CLI also prints its fallback reason
        }
      }
      if (!exact) {
        ran_profile = true;
        cachesim::ProfileResult prof;
        {
          Scoped s(r.t, "cachesim.profile");
          prof = cachesim::profile_stack_distances(*cp, j.line);
        }
        oc.completeness = prof.completeness;
        oc.accesses = prof.accesses;
        for (const std::int64_t cap : caps) {
          oc.rows.push_back(prof.result(cap));
        }
      }
      curve = misses_of(oc.rows);
      Scoped s(r.t, "analysis.render");
      std::ostringstream os;
      analysis::render_sweep_json(oc, os, false);
      out.text = out.rows_only ? rows_json(caps, curve) : chomp(os.str());
    }
  }
  if (walked) trace_siblings(r, j, *cp, caps, curve, ran_profile);
  return out;
}

Printed replay_misses(Replay& r, const Job& j) {
  Printed out;
  std::optional<model::Analysis> an;
  std::optional<ir::Program> prog;
  double predict_s = 0;
  const std::int64_t cap = j.cap >= 0 ? j.cap : 8192;
  {
    Scoped job(r.t, "bench.job");
    {
      Scoped s(r.t, "ir.parse");
      prog.emplace(ir::parse_program(j.program));
    }
    {
      Scoped s(r.t, "model.analyze");
      an.emplace(model::analyze(*prog));
    }
    analysis::MissesOutcome oc;
    int id = -1;
    {
      Scoped s(r.t, "model.predict");
      id = s.id();
      oc.pred = model::predict_misses(*an, j.env, cap);
    }
    predict_s = r.t.duration(id);
    Scoped s(r.t, "analysis.render");
    std::ostringstream os;
    analysis::render_misses_json(oc, os);
    out.text = chomp(os.str());
  }
  Scoped sib(r.t, "bench.siblings");
  int id = -1;
  model::Confidence conf = model::Confidence::kExact;
  {
    Scoped s(r.t, "model.symbolic_sweep");
    id = s.id();
    conf = model::symbolic_sweep(*an, j.env).confidence;
  }
  r.c.symbolic_calls += 1;
  if (conf == model::Confidence::kExact) r.c.symbolic_exact += 1;
  r.c.pair_predict_s += predict_s;
  r.c.pair_symbolic_s += r.t.duration(id);
  return out;
}

Printed replay_advise(Replay& r, const Job& j) {
  Printed out;
  const std::int64_t cap = j.cap >= 0 ? j.cap : 8192;
  std::optional<ir::ParsedProgram> pp;
  std::optional<analysis::AdvisorReport> rep;
  {
    Scoped job(r.t, "bench.job");
    {
      Scoped s(r.t, "ir.parse");
      pp.emplace(ir::parse_program_located(j.program));
    }
    analysis::AdvisorOptions ao;
    ao.capacity = cap;
    {
      Scoped s(r.t, "analysis.advise");
      rep.emplace(analysis::advise(pp->prog, j.env, ao, &pp->locs));
    }
    Scoped s(r.t, "analysis.render");
    std::ostringstream os;
    analysis::render_advice_json(*rep, os, 0);
    out.text = chomp(os.str());
  }
  Scoped sib(r.t, "bench.siblings");
  {
    Scoped s(r.t, "analysis.dependence");
    const analysis::DependenceAnalysis da =
        analysis::analyze_dependences(pp->prog);
    if (da.bands.size() != rep->dependences.bands.size()) {
      r.oc.fail(j.id + ": dependence bands differ from the advisor's");
    }
  }
  {
    // The advisor's scoring, replayed: predict_misses on each transformed
    // program under its bindings.
    Scoped s(r.t, "analysis.advise_scoring");
    for (const analysis::Advice& a : rep->advice) {
      sdlo::sym::Env full = j.env;
      for (const auto& [k, v] : a.env_extra) full[k] = v;
      const model::Analysis an = model::analyze(a.transformed);
      model::predict_misses(an, full, cap);
    }
  }
  r.c.advise_candidates += static_cast<double>(rep->candidates_scored);
  {
    Scoped s(r.t, "analysis.lint");
    analysis::LintOptions lo;
    lo.env = j.env;
    lo.capacity = cap;
    const analysis::LintReport lint = analysis::lint_text(j.program, lo);
    std::ostringstream os;
    analysis::render_json(lint, os);
  }
  return out;
}

Printed replay_analyze(Replay& r, const Job& j) {
  Printed out;
  Scoped job(r.t, "bench.job");
  std::optional<ir::Program> prog;
  {
    Scoped s(r.t, "ir.parse");
    prog.emplace(ir::parse_program(j.program));
  }
  // render_analyze_json runs model::analyze itself; its span covers both.
  Scoped s(r.t, "analysis.render");
  std::ostringstream os;
  analysis::render_analyze_json(*prog, os);
  out.text = chomp(os.str());
  return out;
}

Printed replay(Replay& r, const Job& j) {
  if (j.verb == "sweep") return replay_sweep(r, j);
  if (j.verb == "misses") return replay_misses(r, j);
  if (j.verb == "advise") return replay_advise(r, j);
  if (j.verb == "analyze") return replay_analyze(r, j);
  throw sdlo::Error("no replay for verb " + j.verb);
}

/// Replays `j` in-process, runs it once through the CLI, and checks the
/// two outputs agree. Returns CLI seconds minus in-process seconds.
double replay_and_compare(Replay& r, const Job& j) {
  r.t.set_job(j.id);
  ++r.oc.attempted;
  const std::size_t first = r.t.spans().size();
  const Printed mine = replay(r, j);
  double own = 0;
  for (std::size_t i = first; i < r.t.spans().size(); ++i) {
    if (r.t.spans()[i].name == "bench.job") {
      own = r.t.duration(static_cast<int>(i));
    }
  }
  ChildResult cli;
  {
    Scoped s(r.t, "cli.job");
    cli = run_sdlo(j.cli_args("cli.spool"));
  }
  std::filesystem::remove("cli.spool");
  const std::string theirs =
      mine.rows_only ? json_member(chomp(cli.out), "rows") : chomp(cli.out);
  if (cli.exit_code != 0 || theirs != mine.text) {
    r.oc.fail(j.id + ": in-process output differs from the CLI's");
  }
  return cli.seconds - own;
}

// --- serve session ---------------------------------------------------------

struct ServeStats {
  std::vector<Sample> samples;
  int framing_errors = 0;
};

/// Runs one pass of `sequence` through a fresh daemon and sends each of
/// `probes` (lint/advise lines) once to count framing errors.
ServeStats serve_session(Tracer& t, Clock::time_point origin,
                         const std::vector<Job>& distinct,
                         const std::vector<std::size_t>& sequence,
                         const std::vector<std::string>& probes) {
  ServeStats st;
  t.set_job("serve");
  Scoped session(t, "serve.session");
  ServeSession daemon(4, 4, origin);
  std::map<std::size_t, std::string> unused;
  st.samples = daemon.run_pass(distinct, sequence, 1, {}, unused);
  for (const Sample& s : st.samples) {
    Span sp;
    sp.name = "serve.request";
    sp.job = distinct[s.distinct].id;
    sp.t0 = s.t0;
    sp.t1 = s.t1;
    sp.parent = session.id();
    sp.tid = 10 + s.conn;
    t.add(sp);
  }
  {
    Scoped s(t, "serve.framing_probe");
    st.framing_errors = daemon.framing_errors(probes);
  }
  daemon.shutdown();
  return st;
}

Job as_verb(Job j, const std::string& verb, std::int64_t cap,
            const std::string& engine) {
  j.verb = verb;
  j.cap = cap;
  j.engine = engine;
  j.line = 1;
  j.id = verb + (engine.empty() ? "" : "-" + engine) + " " + j.id;
  return j;
}

void serve_metrics(const ServeStats& st, const std::vector<Job>& distinct,
                   Metrics& m, Outcome& oc) {
  std::vector<double> queue, run, transport, hit, miss;
  std::map<std::string, std::vector<double>> by_verb;
  double errors = 0, rejected = 0, truncated = 0, cached = 0;
  for (const Sample& s : st.samples) {
    ++oc.attempted;
    if (!s.parsed || s.status == "error") {
      ++errors;
    } else if (s.status == "rejected") {
      ++rejected;
    } else if (s.status == "truncated") {
      ++truncated;
    }
    if (!s.ok) oc.fail(distinct[s.distinct].id + ": daemon status " + s.status);
    if (!s.parsed) continue;
    queue.push_back(s.queue_ms);
    run.push_back(s.run_ms);
    transport.push_back(s.latency_ms() - s.queue_ms - s.run_ms);
    (s.cached ? hit : miss).push_back(s.latency_ms());
    if (s.cached) {
      ++cached;
    } else {
      by_verb[distinct[s.distinct].verb].push_back(s.run_ms);
    }
  }
  const double n = static_cast<double>(st.samples.size());
  m["serve.queue_ms_p50"] = {median(queue), "ms"};
  m["serve.queue_ms_p99"] = {percentile(queue, 99), "ms"};
  m["serve.run_ms_p50"] = {median(run), "ms"};
  m["serve.run_ms_p99"] = {percentile(run, 99), "ms"};
  m["serve.transport_ms_p50"] = {median(transport), "ms"};
  m["serve.hit_share"] = {n > 0 ? cached / n : 0, "ratio"};
  m["serve.hit_latency_p50_ms"] = {median(hit), "ms"};
  m["serve.miss_latency_p50_ms"] = {median(miss), "ms"};
  for (const char* verb : {"analyze", "misses", "sweep"}) {
    m[std::string("serve.") + verb + ".run_ms_p50"] = {median(by_verb[verb]),
                                                       "ms"};
  }
  m["serve.framing_errors"] = {static_cast<double>(st.framing_errors),
                               "count"};
  m["serve.errors"] = {errors, "count"};
  m["serve.rejected"] = {rejected, "count"};
  m["serve.truncated"] = {truncated, "count"};
}

// --- metrics ---------------------------------------------------------------

/// Per-layer values from one source: the replay (panel == false) or the
/// panel. `has` names the metrics that source actually measured.
struct LayerValues {
  Metrics m;
  std::set<std::string> has;
};

LayerValues layer_values(const std::vector<Span>& spans, const Counters& c,
                         bool panel) {
  std::map<std::string, double> sum;
  std::map<std::string, int> count;
  for (const Span& s : spans) {
    if ((s.job == "panel") != panel) continue;
    sum[s.name] += s.t1 - s.t0;
    ++count[s.name];
  }
  LayerValues v;
  const auto from_span = [&](const std::string& metric,
                             const std::string& span) {
    v.m[metric] = {sum[span], "s"};
    if (count[span] > 0) v.has.insert(metric);
  };
  const auto derived = [&](const std::string& metric, double value,
                           const std::string& unit, bool present) {
    v.m[metric] = {value, unit};
    if (present) v.has.insert(metric);
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  from_span("ir.parse_s", "ir.parse");
  from_span("trace.walk_s", "trace.walk");
  derived("trace.accesses_per_group", ratio(c.accesses, c.groups),
          "accesses/group", c.groups > 0);
  from_span("trace.spool_write_s", "trace.spool_write");
  derived("trace.spool_bytes_per_access",
          ratio(c.spool_bytes, c.spool_accesses), "B/access",
          c.spool_accesses > 0);
  from_span("cachesim.profile_s", "cachesim.profile");
  const bool walked = count["trace.walk"] > 0 && count["cachesim.profile"] > 0;
  derived("cachesim.profile_self_s",
          sum["cachesim.profile"] - sum["trace.walk"], "s", walked);
  from_span("cachesim.streamed_1t_s", "cachesim.streamed_1t");
  from_span("cachesim.streamed_4t_s", "cachesim.streamed_4t");
  const bool streamed = count["cachesim.streamed_4t"] > 0;
  derived("cachesim.merge_s", c.merge_s, "s", streamed);
  derived("cachesim.merge_wait_s", c.merge_wait_s, "s", streamed);
  derived("cachesim.chunks", c.chunks, "count", streamed);
  derived("cachesim.overlapped_merges", c.overlapped_merges, "count",
          streamed);
  derived("parallel.speedup_4t",
          ratio(sum["cachesim.streamed_1t"], sum["cachesim.streamed_4t"]),
          "ratio", streamed && count["cachesim.streamed_1t"] > 0);
  from_span("model.analyze_s", "model.analyze");
  from_span("model.predict_s", "model.predict");
  from_span("model.symbolic_sweep_s", "model.symbolic_sweep");
  derived("model.symbolic_exact_share",
          ratio(c.symbolic_exact, c.symbolic_calls), "ratio",
          c.symbolic_calls > 0);
  derived("model.predict_over_symbolic",
          ratio(c.pair_predict_s, c.pair_symbolic_s), "ratio",
          c.pair_symbolic_s > 0);
  from_span("analysis.dependence_s", "analysis.dependence");
  from_span("analysis.advise_s", "analysis.advise");
  from_span("analysis.advise_scoring_s", "analysis.advise_scoring");
  derived("analysis.advise_candidates", c.advise_candidates, "count",
          count["analysis.advise"] > 0);
  from_span("analysis.lint_s", "analysis.lint");
  from_span("analysis.render_s", "analysis.render");
  return v;
}

// --- Chrome trace ------------------------------------------------------------

std::string chrome_trace(const std::vector<Span>& spans,
                         const std::string& host) {
  std::string s = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"host\":" +
                  host + "},\"traceEvents\":[";
  bool first = true;
  for (const Span& sp : spans) {
    const std::string layer = sp.name.substr(0, sp.name.find('.'));
    s += (first ? "" : ",\n") + std::string("{\"name\":") + quote(sp.name) +
         ",\"cat\":" + quote(layer) + ",\"ph\":\"X\",\"ts\":" +
         num(sp.t0 * 1e6) + ",\"dur\":" + num((sp.t1 - sp.t0) * 1e6) +
         ",\"pid\":1,\"tid\":" + std::to_string(sp.tid) +
         ",\"args\":{\"job\":" + quote(sp.job) + ",\"parent\":" +
         (sp.parent < 0
              ? std::string("null")
              : quote(spans[static_cast<std::size_t>(sp.parent)].name)) +
         "}}";
    first = false;
  }
  return s + "]}\n";
}

}  // namespace

Outcome run_traced(const Options& opt, const Workload& w) {
  Outcome oc;
  const auto origin = Clock::now();
  Tracer t(origin);

  // The jobs to replay: every distinct job of the workload.
  std::vector<Job> jobs = w.is_serve() ? w.distinct : w.jobs;
  if (jobs.size() > kMaxServeReplays) jobs.resize(kMaxServeReplays);
  write_program_files(jobs);

  Counters replay_c, panel_c;
  Replay rep{t, replay_c, oc};
  std::vector<double> overhead_ms;
  for (const Job& j : jobs) {
    overhead_ms.push_back(replay_and_compare(rep, j) * 1000.0);
  }

  // The panel: every layer once on the fixed small program.
  const Job panel = panel_job();
  write_program_files({panel});
  Replay pan{t, panel_c, oc};
  for (const Job& j : {panel, as_verb(panel, "misses", 64, ""),
                       as_verb(panel, "advise", 64, "")}) {
    t.set_job("panel");
    ++oc.attempted;
    replay(pan, j);
  }

  t.set_job("cli");
  std::vector<double> spawn_ms;
  for (int i = 0; i < 21; ++i) {
    Scoped s(t, "cli.spawn");
    const ChildResult r = run_sdlo({"--version"});
    if (r.exit_code != 0) oc.fail("sdlo --version failed");
    spawn_ms.push_back(r.seconds * 1000.0);
  }

  // The daemon: serve-mix sends one pass of its own mix; the CLI
  // workloads send the panel program through each daemon verb.
  std::vector<Job> distinct;
  std::vector<std::size_t> sequence;
  std::vector<Job> probe_src;
  if (w.is_serve()) {
    distinct = w.distinct;
    sequence = w.sequence;
    for (const Job& j : w.distinct) {
      if (j.file[0] == 'g' && probe_src.size() < 8) probe_src.push_back(j);
    }
  } else {
    distinct = {as_verb(panel, "analyze", -1, ""),
                as_verb(panel, "misses", 64, ""),
                as_verb(panel, "sweep", -1, "symbolic"),
                as_verb(panel, "sweep", -1, "")};
    for (int rep_i = 0; rep_i < 10; ++rep_i) {
      for (std::size_t d = 0; d < distinct.size(); ++d) sequence.push_back(d);
    }
    probe_src = {panel};
  }
  std::vector<std::string> probes;
  for (const Job& j : probe_src) {
    probes.push_back(as_verb(j, "lint", 64, "").request_line(1));
    probes.push_back(as_verb(j, "advise", 64, "").request_line(2));
  }
  const ServeStats st = serve_session(t, origin, distinct, sequence, probes);

  // Metrics: the replay's value where the workload reaches the layer,
  // else the panel's.
  const LayerValues from_replay = layer_values(t.spans(), replay_c, false);
  const LayerValues from_panel = layer_values(t.spans(), panel_c, true);
  std::string sources = "{";
  for (const auto& [name, metric] : from_replay.m) {
    const bool own = from_replay.has.count(name) != 0;
    oc.metrics[name] = own ? metric : from_panel.m.at(name);
    sources += (sources.size() > 1 ? "," : "") + quote(name) + ":" +
               quote(own ? "replay" : "panel");
  }
  sources += "}";
  serve_metrics(st, distinct, oc.metrics, oc);
  oc.metrics["cli.spawn_ms"] = {median(spawn_ms), "ms"};
  oc.metrics["cli.overhead_ms"] = {median(overhead_ms), "ms"};
  oc.detail.emplace_back("sources", sources);
  oc.detail.emplace_back("replayed_jobs", std::to_string(jobs.size()));

  write_file(opt.trace_events, chrome_trace(t.spans(), host_record_json(opt)));
  return oc;
}

}  // namespace sdlo_bench
