#include "analysis/sweep_driver.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/verbs.hpp"
#include "cachesim/parallel_stack.hpp"
#include "parallel/thread_pool.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace sdlo::analysis {

SweepEngine parse_sweep_engine(const std::string& name) {
  if (name == "simulate" || name == "simulated") {
    return SweepEngine::kSimulate;
  }
  if (name == "symbolic") return SweepEngine::kSymbolic;
  throw Error("unknown sweep engine '" + name +
              "' (expected 'simulate' or 'symbolic')");
}

int SweepOutcome::exit_code() const {
  return to_int(truncated() ? ExitCode::kTruncated : ExitCode::kOk);
}

std::vector<std::int64_t> sweep_ladder(std::int64_t line,
                                       std::uint64_t space) {
  SDLO_EXPECTS(line > 0);
  std::vector<std::int64_t> caps;
  for (std::int64_t cap = line;
       cap <= static_cast<std::int64_t>(space) * 2; cap *= 2) {
    caps.push_back(cap);
  }
  return caps;
}

namespace {

/// The shortest trace the model counts first when the request names no
/// engine. Below it the walk wins: it costs about 8-10 ns an access, so a
/// trace of 2^20 accesses walks in about 10 ms, while the model costs 0.4
/// to 30 ms on the gallery programs whatever their size. Above it the
/// model answered 290 of 300 generated programs of 2^20 to 2^26 accesses
/// faster, with the same rows (4-core x86 host, RelWithDebInfo).
constexpr std::uint64_t kModelFirstAccesses = std::uint64_t{1} << 20;

/// The engine a request runs: the one it names, else the model on a long
/// element-granular trace that no spool asks to walk, else the walk.
SweepEngine plan_engine(const SweepDriverOptions& opts,
                        const trace::CompiledProgram& cp) {
  if (opts.engine) return *opts.engine;
  return opts.line_elems == 1 && opts.spool_path.empty() &&
                 cp.total_accesses() >= kModelFirstAccesses
             ? SweepEngine::kSymbolic
             : SweepEngine::kSimulate;
}

/// How many partitions of `sweep` had their depth decided by probes.
std::size_t probed_partitions(const model::SymbolicSweep& sweep) {
  std::size_t n = 0;
  for (const model::PartitionCurve& pc : sweep.parts) n += pc.probed;
  return n;
}

/// Asks the model for `oc`'s rows; true when its answer stands. It
/// stands when it is exact and no partition's depth was sampled by probes,
/// and for a planned request only when it is also complete: a planned
/// request gets the walk's document, so the model answers it only with
/// the walk's counts. A named-engine request whose answer does not stand
/// records why in `oc`; a planned one leaves `oc` as it was. The model's
/// histograms and their budget charge are gone when this returns.
bool model_answers(const ir::Program& prog, const sym::Env& env,
                   const SweepDriverOptions& opts, const Governor* gov,
                   SweepOutcome& oc) {
  const model::Analysis an = model::analyze(prog);
  const model::SymbolicSweep sweep =
      model::symbolic_sweep(an, env, opts.symbolic, gov);
  const std::size_t probed = probed_partitions(sweep);
  const bool exact =
      sweep.confidence == model::Confidence::kExact && probed == 0;
  const bool planned = !opts.engine;
  if (planned && !(exact && sweep.completeness == Completeness::kComplete)) {
    return false;
  }
  if (!planned) oc.confidence = sweep.confidence;
  if (exact) {
    oc.completeness = sweep.completeness;
    oc.accesses = static_cast<std::uint64_t>(sweep.accounted_accesses);
    oc.rows.reserve(oc.capacities.size());
    for (const std::int64_t cap : oc.capacities) {
      oc.rows.push_back(sweep.result_at(cap));
    }
    if (planned) {
      oc.model_counted = true;
    } else {
      oc.engine = "symbolic";
      oc.crossings = sweep.crossing_points();
    }
    return true;
  }
  // Not model-exact, or exact only by sampling: the analytic histogram
  // would be a guess. Fall back to the trace walk (sdlo lint flags the
  // offending sites as AP105).
  oc.fell_back = true;
  oc.fallback_reason =
      sweep.confidence != model::Confidence::kExact
          ? "analytic histogram is not exact for this program (AP105: "
            "partitions exceed the enumeration limit with varying "
            "depth); answered by simulation"
          : "the depth of " + std::to_string(probed) +
                " partition(s) was sampled by probes, not enumerated; "
                "answered by simulation";
  return false;
}

/// The simulated engine: the streamed sweep over the ladder, on a pool when
/// threads > 1, teeing the spool when one is requested.
void simulate_ladder(const trace::CompiledProgram& cp,
                     const SweepDriverOptions& opts, const Governor* gov,
                     SweepOutcome& oc) {
  std::vector<cachesim::SweepConfig> configs;
  configs.reserve(oc.capacities.size());
  for (const std::int64_t cap : oc.capacities) {
    configs.push_back({cap, opts.line_elems});
  }
  std::unique_ptr<parallel::ThreadPool> pool;
  if (opts.threads > 1) {
    pool = std::make_unique<parallel::ThreadPool>(opts.threads);
  }
  cachesim::StreamOptions sopt;
  std::optional<trace::SpoolFileGuard> guard;
  std::optional<trace::SpoolWriter> writer;
  if (!opts.spool_path.empty()) {
    guard.emplace(opts.spool_path);
    writer.emplace(opts.spool_path);
    sopt.tee = &*writer;
  }
  oc.rows = cachesim::simulate_sweep_streamed(cp, configs, pool.get(), sopt,
                                              gov);
  oc.engine = "simulated";
  oc.accesses = oc.rows.empty() ? 0 : oc.rows[0].accesses;
  oc.completeness = Completeness::kComplete;
  for (const cachesim::SimResult& r : oc.rows) {
    if (r.completeness == Completeness::kTruncated) {
      oc.completeness = Completeness::kTruncated;
    }
  }
  // The tee walk and the chunk walks stop independently on a governor
  // trip, so a spool is kept only for a complete result.
  if (writer && oc.completeness == Completeness::kComplete &&
      writer->groups() == cp.group_count()) {
    writer->finish(cp.num_sites(), cp.address_space_size());
    oc.spool_bytes = std::filesystem::file_size(opts.spool_path);
    guard->release();
    oc.spool_path = opts.spool_path;
  }
}

}  // namespace

SweepOutcome run_sweep(const ir::Program& prog, const sym::Env& env,
                       const SweepDriverOptions& opts, const Governor* gov) {
  require_line(opts.line_elems);
  if (opts.engine == SweepEngine::kSymbolic && !opts.spool_path.empty()) {
    throw Error(
        "--spool tees the simulated trace walk; it cannot be combined with "
        "--engine symbolic");
  }
  const trace::CompiledProgram cp(prog, env);
  SweepOutcome oc;
  oc.line_elems = opts.line_elems;
  oc.capacities = sweep_ladder(opts.line_elems, cp.address_space_size());

  if (plan_engine(opts, cp) == SweepEngine::kSymbolic) {
    if (opts.line_elems != 1) {
      oc.fell_back = true;
      oc.fallback_reason = "line granularity (" +
                           std::to_string(opts.line_elems) +
                           " elements/line) is outside the element model";
    } else if (model_answers(prog, env, opts, gov, oc)) {
      return oc;
    }
  }

  simulate_ladder(cp, opts, gov, oc);
  return oc;
}

void render_sweep_text(const SweepOutcome& oc, std::ostream& os,
                       bool sites) {
  std::vector<std::string> header{"capacity", "misses", "miss ratio"};
  sites = sites && !oc.rows.empty();
  if (sites) {
    for (std::size_t s = 0; s < oc.rows[0].misses_by_site.size(); ++s) {
      header.push_back("site " + std::to_string(s));
    }
  }
  TextTable t(header);
  for (std::size_t i = 0; i < oc.rows.size(); ++i) {
    const auto& r = oc.rows[i];
    std::vector<std::string> row{
        with_commas(oc.capacities[i]),
        with_commas(static_cast<std::int64_t>(r.misses)),
        format_double(oc.accesses == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(r.misses) /
                                static_cast<double>(oc.accesses),
                      3) +
            "%"};
    if (sites) {
      for (const auto m : r.misses_by_site) {
        row.push_back(with_commas(static_cast<std::int64_t>(m)));
      }
    }
    t.add_row(row);
  }
  t.print(os);
  if (oc.line_elems != 1) {
    os << "(line granularity: " << oc.line_elems
       << " elements per line; capacities in elements)\n";
  }
  os << "engine: " << oc.engine;
  if (oc.model_counted) {
    os << " (counted by the exact model; no trace walk)";
  } else if (oc.engine == "symbolic") {
    os << " (analytic curve, " << oc.crossings.size()
       << " crossing points; no trace walk)";
  } else if (oc.fell_back) {
    os << " (fallback from symbolic: " << oc.fallback_reason << ")";
  }
  os << "\n";
  if (oc.truncated()) {
    if (oc.engine == "symbolic") {
      os << "TRUNCATED by budget after "
         << with_commas(static_cast<std::int64_t>(oc.accesses))
         << " accesses' worth of partitions: best-so-far partial curve "
            "(lower bounds for the full program)\n";
    } else {
      os << "TRUNCATED by budget after "
         << with_commas(static_cast<std::int64_t>(oc.accesses))
         << " accesses: counts are exact for that prefix (lower "
            "bounds for the full trace)\n";
    }
  }
  if (!oc.spool_path.empty()) {
    os << "spooled trace written to " << oc.spool_path << " ("
       << with_commas(static_cast<std::int64_t>(oc.spool_bytes))
       << " bytes)\n";
  }
}

void render_sweep_json(const SweepOutcome& oc, std::ostream& os,
                       bool sites) {
  os << "{\"version\":\"" << kVersionNumber << "\",\"engine\":\""
     << oc.engine << "\",\"fell_back\":"
     << (oc.fell_back ? "true" : "false");
  if (oc.fell_back) {
    os << ",\"fallback_reason\":\"" << oc.fallback_reason << "\"";
  }
  os << ",\"confidence\":\"" << model::confidence_name(oc.confidence)
     << "\",\"line_elems\":" << oc.line_elems
     << ",\"accesses\":" << oc.accesses << ",\"completeness\":\""
     << (oc.truncated() ? "truncated" : "complete") << "\",\"rows\":[";
  for (std::size_t i = 0; i < oc.rows.size(); ++i) {
    os << (i == 0 ? "" : ",") << "{\"capacity\":" << oc.capacities[i]
       << ",\"misses\":" << oc.rows[i].misses;
    if (sites) {
      os << ",\"misses_by_site\":[";
      for (std::size_t s = 0; s < oc.rows[i].misses_by_site.size(); ++s) {
        os << (s == 0 ? "" : ",") << oc.rows[i].misses_by_site[s];
      }
      os << "]";
    }
    os << "}";
  }
  os << "]";
  if (oc.engine == "symbolic") {
    os << ",\"crossings\":[";
    for (std::size_t i = 0; i < oc.crossings.size(); ++i) {
      os << (i == 0 ? "" : ",") << oc.crossings[i];
    }
    os << "]";
  }
  if (!oc.spool_path.empty()) {
    os << ",\"spool\":{\"path\":\"" << json_escape(oc.spool_path)
       << "\",\"bytes\":" << oc.spool_bytes << "}";
  }
  os << "}\n";
}

}  // namespace sdlo::analysis
