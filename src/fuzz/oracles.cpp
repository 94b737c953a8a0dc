#include "fuzz/oracles.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#if !defined(_WIN32)
#include <unistd.h>
#endif
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/advisor.hpp"
#include "analysis/dependence.hpp"
#include "analysis/lint.hpp"
#include "analysis/parallel_safety.hpp"
#include "analysis/verbs.hpp"
#include "cachesim/marker_stack.hpp"
#include "cachesim/parallel_stack.hpp"
#include "cachesim/sim.hpp"
#include "fuzz/naive_interpreter.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "model/analyzer.hpp"
#include "model/symbolic_sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/failpoints.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace sdlo::fuzz {

namespace {

using cachesim::SimResult;

/// Element capacities for the model-vs-profiler comparison (line size 1).
constexpr std::array<std::int64_t, 10> kCapacities = {1,  2,  3,  5,   8,
                                                      13, 21, 55, 200, 5000};
/// Line sizes (elements, powers of two) for line-granular oracles.
constexpr std::array<std::int64_t, 3> kLineSizes = {1, 2, 4};
/// Capacities *in lines* for line-granular and set-associative oracles
/// (element capacity = lines * line size).
constexpr std::array<std::int64_t, 5> kCapacityLines = {1, 2, 3, 8, 21};
/// Per-site capacity for the model per-site oracle (and the lint, advise
/// and daemon oracles' capacity).
constexpr std::int64_t kPerSiteCapacity = 21;

void add_mismatch(OracleReport& report, const std::string& oracle,
                  const std::string& detail) {
  report.mismatches.push_back(Mismatch{oracle, detail});
}

/// Byte-for-byte file equality (both must exist and match exactly).
bool files_equal(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  const std::string da((std::istreambuf_iterator<char>(fa)),
                       std::istreambuf_iterator<char>());
  const std::string db((std::istreambuf_iterator<char>(fb)),
                       std::istreambuf_iterator<char>());
  return da == db;
}

/// Compares two SimResults field by field; any difference is one mismatch
/// naming the first differing field.
void compare_results(OracleReport& report, const std::string& oracle,
                     const std::string& where, const SimResult& got,
                     const SimResult& want) {
  std::ostringstream os;
  os << where << ": ";
  if (got.accesses != want.accesses) {
    os << "accesses " << got.accesses << " != " << want.accesses;
  } else if (got.misses != want.misses) {
    os << "misses " << got.misses << " != " << want.misses;
  } else if (got.misses_by_site != want.misses_by_site) {
    std::size_t s = 0;
    while (s < got.misses_by_site.size() &&
           s < want.misses_by_site.size() &&
           got.misses_by_site[s] == want.misses_by_site[s]) {
      ++s;
    }
    os << "misses_by_site[" << s << "] ";
    if (s < got.misses_by_site.size()) os << got.misses_by_site[s];
    else os << "<absent>";
    os << " != ";
    if (s < want.misses_by_site.size()) os << want.misses_by_site[s];
    else os << "<absent>";
  } else {
    return;  // equal
  }
  add_mismatch(report, oracle, os.str());
}

/// A model prediction in SimResult shape, for compare_results.
SimResult prediction_as_sim(const model::MissPrediction& pred) {
  SimResult r;
  r.accesses = static_cast<std::uint64_t>(pred.total_accesses);
  r.misses = static_cast<std::uint64_t>(pred.misses);
  r.misses_by_site.reserve(pred.misses_by_site.size());
  for (const auto m : pred.misses_by_site) {
    r.misses_by_site.push_back(static_cast<std::uint64_t>(m));
  }
  return r;
}

void check_roundtrip(OracleReport& report, const ir::Program& prog) {
  const std::string text = ir::to_code_string(prog);
  try {
    const ir::Program reparsed = ir::parse_program(text);
    if (!ir::structurally_equal(prog, reparsed)) {
      add_mismatch(report, "print-parse-roundtrip",
                   "parse(print(p)) is not structurally equal to p;"
                   " reparsed form:\n" + ir::to_code_string(reparsed));
    }
  } catch (const Error& e) {
    add_mismatch(report, "print-parse-roundtrip",
                 std::string("printed program does not parse: ") + e.what());
  }
}

void check_walker(OracleReport& report, const trace::CompiledProgram& cp) {
  // Every run group must satisfy the contract the bulk engines rely on
  // (uniform count, bounded width when count > 1), and the groups must add
  // up to total_accesses(), which the chunk planner trusts.
  std::uint64_t accesses = 0;
  bool diverged = false;
  cp.walk_runs([&](const trace::Run* g, std::size_t nrefs) {
    if (diverged) return;
    const std::uint64_t count = nrefs > 0 ? g[0].count : 0;
    bool ok = nrefs > 0 && count > 0 &&
              (count == 1 || nrefs <= trace::kMaxLeafRefs);
    for (std::size_t r = 1; ok && r < nrefs; ++r) ok = g[r].count == count;
    if (!ok) {
      std::ostringstream os;
      os << "walk_runs group violates contract: nrefs=" << nrefs
         << " count=" << count;
      add_mismatch(report, "walker-runs", os.str());
      diverged = true;
      return;
    }
    accesses += count * nrefs;
  });
  if (!diverged && accesses != cp.total_accesses()) {
    std::ostringstream os;
    os << "walk_runs produced " << accesses
       << " accesses, total_accesses() = " << cp.total_accesses();
    add_mismatch(report, "walker", os.str());
  }
}

void check_model(OracleReport& report, const ir::Program& prog,
                 const sym::Env& env, const trace::CompiledProgram& cp) {
  const auto an = model::analyze(prog);
  const auto prof = cachesim::profile_stack_distances(cp);
  const model::SymbolicSweep sweep = model::symbolic_sweep(an, env);
  for (const std::int64_t cap : kCapacities) {
    const auto pred = model::predict_at(an, sweep, env, cap);
    if (static_cast<std::uint64_t>(pred.misses) != prof.misses(cap)) {
      std::ostringstream os;
      os << "cap=" << cap << ": model predicts " << pred.misses
         << " misses, profiler counts " << prof.misses(cap);
      add_mismatch(report, "model-vs-profile", os.str());
    }
  }
  // Per-site agreement against the arena LRU cache at one mid capacity.
  const std::int64_t cap = kPerSiteCapacity;
  const auto sim = cachesim::simulate_lru(cp, cap);
  compare_results(report, "model-vs-lru-per-site",
                  "cap=" + std::to_string(cap),
                  prediction_as_sim(model::predict_at(an, sweep, env, cap)),
                  sim);

  // A tiny enumeration budget pushes partitions onto the probe path. Each
  // prediction must then still be bit-identical to the profiler, per site
  // included, or be marked approximate: a partition the sweep could not
  // make exact must never be reported exact.
  model::SymbolicSweepOptions tiny;
  tiny.enum_limit = 16;
  const model::SymbolicSweep probed = model::symbolic_sweep(an, env, tiny);
  for (const std::int64_t c : kCapacities) {
    const auto pred = model::predict_at(an, probed, env, c);
    if (pred.confidence == model::Confidence::kApproximate) continue;
    compare_results(report, "model-tiny-budget-vs-profile",
                    "enum_limit=" + std::to_string(tiny.enum_limit) +
                        " cap=" + std::to_string(c),
                    prediction_as_sim(pred), prof.result(c));
  }

  if (sweep.confidence != model::Confidence::kExact) {
    // Not model-exact: the sweep driver falls back to simulation, so there
    // is no analytic curve to enroll. (The predictions above still cover
    // the interpolated paths.)
    return;
  }
  // The analytic stack-distance histogram must be bit-identical to the
  // trace profiler's — global and per-site, cold counts included.
  const auto got = sweep.profile();
  if (got.accesses != prof.accesses || got.cold != prof.cold ||
      got.histogram != prof.histogram ||
      got.cold_by_site != prof.cold_by_site ||
      got.histogram_by_site != prof.histogram_by_site) {
    add_mismatch(report, "symbolic-sweep-vs-profile",
                 "analytic stack-distance histogram differs from the trace "
                 "profile (cold/global/per-site)");
  }
  // And the evaluated curve must be bit-identical to the streamed engine at
  // the capacity ladder plus every crossing point and both its neighbors.
  std::set<std::int64_t> caps(kCapacities.begin(),
                              kCapacities.end());
  for (const std::int64_t d : sweep.crossing_points()) {
    if (d > 1) caps.insert(d - 1);
    caps.insert(d);
    caps.insert(d + 1);
  }
  const std::vector<std::int64_t> cap_list(caps.begin(), caps.end());
  // The marker-stack engine takes at most 254 capacities per call.
  for (std::size_t base = 0; base < cap_list.size(); base += 200) {
    const std::size_t n =
        std::min<std::size_t>(200, cap_list.size() - base);
    std::vector<cachesim::SweepConfig> configs;
    configs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      configs.push_back({cap_list[base + i], 1});
    }
    const auto swept = cachesim::simulate_sweep_streamed(cp, configs);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t c = cap_list[base + i];
      compare_results(report, "symbolic-sweep-vs-sweep",
                      "cap=" + std::to_string(c), sweep.result_at(c),
                      swept[i]);
    }
  }
}

void check_profile(OracleReport& report, const trace::CompiledProgram& cp) {
  // The Fenwick profiler against the LruCache simulator: two independent
  // per-access implementations of the same LRU semantics.
  for (const std::int64_t line : kLineSizes) {
    const auto prof = cachesim::profile_stack_distances(cp, line);
    for (const std::int64_t cl : kCapacityLines) {
      const std::int64_t cap = cl * line;
      std::ostringstream where;
      where << "cap=" << cap << " line=" << line;
      compare_results(report, "profile-vs-lru-lines", where.str(),
                      prof.result(cap),
                      cachesim::simulate_lru_lines(cp, cap, line));
    }
  }
}

/// The spool round trip: SpooledTrace must re-stream the compiled
/// program's run groups group for group — base, stride, count, mode, site.
void check_spool_groups(OracleReport& report,
                        const trace::CompiledProgram& cp,
                        const std::string& path) {
  std::vector<trace::Run> want;
  std::vector<std::size_t> widths;
  cp.walk_runs([&](const trace::Run* g, std::size_t nrefs) {
    want.insert(want.end(), g, g + nrefs);
    widths.push_back(nrefs);
  });
  const trace::SpooledTrace spool(path);
  std::size_t group = 0;
  std::size_t pos = 0;
  bool diverged = false;
  spool.walk_runs([&](const trace::Run* g, std::size_t nrefs) {
    if (diverged) return;
    bool same = group < widths.size() && nrefs == widths[group];
    for (std::size_t r = 0; same && r < nrefs; ++r) {
      const trace::Run& w = want[pos + r];
      same = g[r].base == w.base && g[r].stride == w.stride &&
             g[r].count == w.count && g[r].mode == w.mode &&
             g[r].site == w.site;
    }
    if (!same) {
      add_mismatch(report, "spooled-vs-walker",
                   "spooled group " + std::to_string(group) +
                       " differs from the compiled program's");
      diverged = true;
      return;
    }
    pos += nrefs;
    ++group;
  });
  if (!diverged && group != widths.size()) {
    add_mismatch(report, "spooled-vs-walker",
                 "spool holds " + std::to_string(group) + " groups, the "
                 "compiled program " + std::to_string(widths.size()));
  }
}

// The one sweep engine against the per-configuration references. One
// fully-associative config list over every line size runs as one chunk
// inline and at several chunk counts on a pool, so the hole-merge pass
// that reconstructs cross-chunk reuse depths is pinned to the naive
// simulators, misses_by_site included.
// Chunk counts cover single-group chunks on small traces (the count is
// clamped to the group count). A teed run must also write the exact bytes
// spool_program does, and the spool must stream the program's groups back.
void check_sweep(OracleReport& report, const trace::CompiledProgram& cp) {
  std::vector<cachesim::SweepConfig> configs;
  for (const std::int64_t line : kLineSizes) {
    for (const std::int64_t cl : kCapacityLines) {
      configs.push_back({cl * line, line});
    }
  }
  const std::vector<SimResult> want = reference_sweep(cp, configs);
  const auto compare_all = [&](const std::vector<SimResult>& got,
                               const std::string& suffix) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      std::ostringstream where;
      where << "cap=" << configs[i].capacity_elems
            << " line=" << configs[i].line_elems << suffix;
      compare_results(report, "sweep-vs-reference", where.str(), got[i],
                      want[i]);
    }
  };
  compare_all(cachesim::simulate_sweep_streamed(cp, configs), " chunks=1");
  // Every multi-chunk run shares one 2-thread pool, where the chunks walk
  // their group ranges concurrently.
  parallel::ThreadPool pool(2);
  for (const int chunks : {2, 5, 17}) {
    cachesim::StreamOptions sopt;
    sopt.partition.chunks = chunks;
    compare_all(cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt),
                " chunks=" + std::to_string(chunks) + " pooled");
  }

  // The name must be unique across *processes* too: ctest runs several
  // instances of this battery concurrently from one temp directory, and a
  // collision lets one process rename or remove a spool another process is
  // mid-read on.
  static std::atomic<std::uint64_t> spool_seq{0};
#if defined(_WIN32)
  const unsigned long pid = 0;
#else
  const auto pid = static_cast<unsigned long>(::getpid());
#endif
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sdlo_fuzz_spool_" + std::to_string(pid) + "_" +
        std::to_string(spool_seq.fetch_add(1, std::memory_order_relaxed)) +
        ".spl"))
          .string();
  const std::string path_tee = path + ".tee";
  try {
    trace::spool_program(path, cp);
    check_spool_groups(report, cp, path);
    trace::SpoolWriter tee(path_tee);
    cachesim::StreamOptions sopt;
    sopt.partition.chunks = 3;
    sopt.tee = &tee;
    compare_all(cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt),
                " chunks=3 pooled tee");
    tee.finish(cp.num_sites(), cp.address_space_size());
    if (!files_equal(path_tee, path)) {
      add_mismatch(report, "streamed-tee-bytes",
                   "teed spool differs from spool_program output");
    }
  } catch (const Error& e) {
    add_mismatch(report, "spooled-vs-walker",
                 std::string("spool round trip failed: ") + e.what());
  }
  std::remove(path.c_str());
  std::remove(path_tee.c_str());
}

void check_set_assoc_edges(OracleReport& report,
                           const trace::CompiledProgram& cp) {
  for (const std::int64_t line : kLineSizes) {
    for (const std::int64_t cl : kCapacityLines) {
      const std::int64_t cap = cl * line;
      std::ostringstream base;
      base << "cap=" << cap << " line=" << line;
      // Associativity == num_lines collapses to one set: the cache is
      // fully associative and must match the LruCache-based simulator.
      compare_results(
          report, "set-assoc-fully-assoc-edge", base.str(),
          cachesim::simulate_set_assoc(cp, cap, static_cast<int>(cl), line),
          cachesim::simulate_lru_lines(cp, cap, line));
    }
  }
}

// Budget oracle: the budget is never exceeded, and a denial costs
// completeness, never exactness. A zero-byte budget denies every dense
// table, so the sweep must return the truncated empty prefix — every row
// 0 accesses, 0 misses — having charged nothing. A budget of exactly the
// stack tables denies a pooled multi-chunk plan, whose retry as one chunk
// must agree bit for bit with the unbudgeted run.
void check_budgeted_degradation(OracleReport& report,
                                const trace::CompiledProgram& cp) {
  std::vector<cachesim::SweepConfig> configs;
  for (const std::int64_t line : kLineSizes) {
    for (const std::int64_t cl : kCapacityLines) {
      configs.push_back({cl * line, line});
    }
  }
  const auto where_of = [&](std::size_t i) {
    std::ostringstream where;
    where << "cap=" << configs[i].capacity_elems
          << " line=" << configs[i].line_elems;
    return where.str();
  };

  MemoryBudget no_memory(0);
  Governor gov;
  gov.memory = &no_memory;
  const auto denied =
      cachesim::simulate_sweep_streamed(cp, configs, nullptr, {}, &gov);
  // An empty trace is answered before any reservation, complete.
  SimResult empty;
  empty.misses_by_site.assign(static_cast<std::size_t>(cp.num_sites()), 0);
  if (cp.total_accesses() > 0) empty.completeness = Completeness::kTruncated;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    compare_results(report, "budgeted-zero-is-empty-prefix", where_of(i),
                    denied[i], empty);
    if (denied[i].completeness != empty.completeness) {
      add_mismatch(report, "budgeted-zero-is-empty-prefix",
                   where_of(i) + ": completeness differs from the empty "
                                 "prefix's");
    }
  }
  if (no_memory.used() != 0) {
    add_mismatch(report, "budgeted-zero-is-empty-prefix",
                 "a denied sweep left " + std::to_string(no_memory.used()) +
                     " bytes charged to a zero budget");
  }

  // A budget holding exactly the stack tables denies a pooled multi-chunk
  // plan its hole lists and merge index; the retry as one chunk must fit
  // and agree.
  std::uint64_t stack_bytes = 0;
  for (const std::int64_t line : kLineSizes) {
    stack_bytes += cp.footprint_lines(line) * cachesim::kStackBytesPerLine;
  }
  MemoryBudget stack_only(stack_bytes);
  Governor one_chunk_gov;
  one_chunk_gov.memory = &stack_only;
  parallel::ThreadPool pool(2);
  cachesim::StreamOptions sopt;
  sopt.partition.chunks = 5;
  const auto dense = cachesim::simulate_sweep_streamed(cp, configs);
  const auto one_chunk = cachesim::simulate_sweep_streamed(
      cp, configs, &pool, sopt, &one_chunk_gov);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    compare_results(report, "budgeted-one-chunk-vs-dense", where_of(i),
                    one_chunk[i], dense[i]);
    if (one_chunk[i].completeness != Completeness::kComplete) {
      add_mismatch(report, "budgeted-one-chunk-vs-dense",
                   where_of(i) + ": memory-budgeted run reported "
                                 "truncation without a deadline");
    }
  }
}

// Every generated program is in the constrained class by construction, so
// the lint pipeline must report it well formed: any error-severity
// diagnostic is a verifier (or generator) bug.
void check_lint_gate(OracleReport& report, const ir::Program& prog,
                     const sym::Env& env) {
  analysis::LintOptions lo;
  lo.env = env;
  lo.capacity = kPerSiteCapacity;
  lo.line_elems = kLineSizes.back();
  const analysis::LintReport rep = analysis::lint_program(prog, nullptr, lo);
  if (rep.ok()) return;
  std::ostringstream os;
  os << "generated program fails the well-formedness lint:";
  for (const auto& d : rep.diagnostics) {
    if (d.severity == analysis::Severity::kError) {
      os << "\n  " << analysis::to_text(d);
    }
  }
  add_mismatch(report, "lint-gate", os.str());
}

// ---------------------------------------------------------------------------
// Parallel-safety oracle: brute-force verification of DOALL claims.
// ---------------------------------------------------------------------------

// Per-(outer-context, array, element) record of which iterations of the
// candidate loop touched it and how.
struct ElemTouches {
  std::vector<std::int64_t> writers;          ///< iterations writing it
  std::vector<std::int64_t> readers;          ///< iterations reading it
  std::vector<std::int64_t> first_touch_read; ///< iterations whose first
                                              ///< access to it is a read
};

// Per-candidate ceiling on brute-forced subtree trace slots.
constexpr std::uint64_t kParallelOracleBudget = 200'000;

// Cross-checks each claimed-DOALL-safe loop by executing its band subtree
// and testing element-wise disjointness; claimed-unsafe loops are excluded
// (the lint verdict gates which loops the parallel oracle exercises).
void check_parallel_claims(OracleReport& report, const ir::Program& prog,
                           const sym::Env& env) {
  NaiveInterpreter interp(prog, env);
  for (const auto& var : prog.variables()) {
    if (interp.extent(var) <= 0) return;  // degenerate: nothing executes
  }
  const auto verdicts = analysis::analyze_parallel_safety(prog);

  for (const auto& lp : verdicts) {
    if (!lp.doall_safe) continue;  // unsafe loops: excluded from the oracle

    // Outer context: loops on the band's path before the candidate.
    std::vector<std::string> outer;
    for (const auto& pl : prog.path_loops(lp.band)) {
      if (pl.band == lp.band && pl.index_in_band == lp.index_in_band) break;
      outer.push_back(pl.var);
    }

    // Cost guard: across all outer contexts the brute force touches every
    // subtree trace slot exactly once; skip oversized candidates.
    if (interp.subtree_accesses(lp.band) > kParallelOracleBudget) continue;

    const std::set<std::string> privatized(lp.privatized.begin(),
                                           lp.privatized.end());

    // Enumerate outer contexts with a mixed-radix counter; under each,
    // execute the band subtree once per iteration of the candidate.
    std::vector<std::int64_t> ov(outer.size(), 0);
    for (;;) {
      std::map<std::string, std::map<std::int64_t, ElemTouches>> touches;
      std::vector<std::int64_t> bound = ov;
      bound.push_back(0);
      for (std::int64_t it = 0; it < interp.extent(lp.var); ++it) {
        bound.back() = it;
        std::map<std::string, std::set<std::int64_t>> seen_this_iter;
        interp.run(
            [&](ir::NodeId stmt, int access, std::int32_t, std::int64_t elem,
                const std::vector<std::int64_t>&) {
              const ir::ArrayRef& ref =
                  prog.statement(stmt)
                      .accesses[static_cast<std::size_t>(access)];
              ElemTouches& t = touches[ref.array][elem];
              if (seen_this_iter[ref.array].insert(elem).second &&
                  ref.mode == ir::AccessMode::kRead) {
                t.first_touch_read.push_back(it);
              }
              auto& list = ref.mode == ir::AccessMode::kWrite ? t.writers
                                                              : t.readers;
              if (list.empty() || list.back() != it) list.push_back(it);
            },
            lp.band, bound);
      }
      for (const auto& [array, elems] : touches) {
        const bool priv = privatized.count(array) != 0;
        for (const auto& [elem, t] : elems) {
          std::string why;
          if (priv) {
            // Privatization claims kill-first: every iteration touching an
            // element must write it before reading it.
            if (!t.first_touch_read.empty()) {
              why = "upward-exposed read in iteration " +
                    std::to_string(t.first_touch_read.front()) +
                    " of privatized array";
            }
          } else if (t.writers.size() > 1) {
            why = "written by iterations " +
                  std::to_string(t.writers[0]) + " and " +
                  std::to_string(t.writers[1]);
          } else if (t.writers.size() == 1) {
            for (const std::int64_t r : t.readers) {
              if (r != t.writers[0]) {
                why = "written by iteration " +
                      std::to_string(t.writers[0]) + ", read by iteration " +
                      std::to_string(r);
                break;
              }
            }
          }
          if (!why.empty()) {
            std::ostringstream os;
            os << "loop '" << lp.var << "' claimed DOALL-safe but " << array
               << "[" << elem << "] is " << why;
            add_mismatch(report, "parallel-safety", os.str());
            return;  // one counterexample per program suffices
          }
        }
      }
      // Advance the outer context.
      std::size_t k = 0;
      for (; k < ov.size(); ++k) {
        if (++ov[k] < interp.extent(outer[k])) break;
        ov[k] = 0;
      }
      if (k == ov.size()) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Dependence oracle: brute-force cross-check of reported direction vectors.
// ---------------------------------------------------------------------------

// Trace slots brute-forced per program, and element-history pairs compared;
// oversized programs are skipped (the analysis is exact regardless of size,
// the oracle just cannot afford the quadratic replay).
constexpr std::uint64_t kDependenceAccessBudget = 50'000;
constexpr std::uint64_t kDependencePairBudget = 2'000'000;

// One recorded access of the replay: which site executed, under which
// values of its enclosing loops (outermost first).
struct DepEvent {
  std::int32_t site = 0;
  ir::NodeId stmt = 0;
  ir::AccessMode mode = ir::AccessMode::kRead;
  std::vector<std::int64_t> vals;
};

int dep_kind_index(ir::AccessMode src, ir::AccessMode dst) {
  const bool sw = src == ir::AccessMode::kWrite;
  const bool dw = dst == ir::AccessMode::kWrite;
  if (sw && !dw) return 0;  // flow
  if (!sw && dw) return 1;  // anti
  if (sw && dw) return 2;   // output
  return -1;                // read-read: reuse, not dependence
}

void check_dependence_claims(OracleReport& report, const ir::Program& prog,
                             const sym::Env& env) {
  NaiveInterpreter interp(prog, env);
  for (const auto& var : prog.variables()) {
    if (interp.extent(var) <= 0) return;  // degenerate: nothing executes
  }

  // Cost guard on the replay itself.
  if (interp.subtree_accesses(ir::Program::kRoot) > kDependenceAccessBudget) {
    return;
  }

  // Replay the whole program in execution order, appending per-(array,
  // element) access histories.
  std::map<std::string, std::map<std::int64_t, std::vector<DepEvent>>> hist;
  std::uint64_t pairs = 0;  // incremental sum of history-pair counts
  interp.run([&](ir::NodeId stmt, int access, std::int32_t site,
                 std::int64_t elem, const std::vector<std::int64_t>& vals) {
    const ir::ArrayRef& ref =
        prog.statement(stmt).accesses[static_cast<std::size_t>(access)];
    std::vector<DepEvent>& h = hist[ref.array][elem];
    pairs += h.size();
    h.push_back({site, stmt, ref.mode, vals});
  });
  if (pairs > kDependencePairBudget) return;

  // Common-loop prefix length per statement pair.
  std::map<std::pair<ir::NodeId, ir::NodeId>, std::size_t> common_len;
  for (ir::NodeId a : prog.statements_in_order()) {
    for (ir::NodeId b : prog.statements_in_order()) {
      const auto pa = prog.path_loops(a);
      const auto pb = prog.path_loops(b);
      std::size_t n = 0;
      while (n < pa.size() && n < pb.size() && pa[n].band == pb[n].band &&
             pa[n].index_in_band == pb[n].index_in_band)
        ++n;
      common_len[{a, b}] = n;
    }
  }

  // Observed set: every ordered same-element pair with at least one write.
  std::set<std::string> observed;
  for (const auto& [array, elems] : hist) {
    (void)array;
    for (const auto& [elem, h] : elems) {
      (void)elem;
      for (std::size_t i = 0; i < h.size(); ++i) {
        for (std::size_t j = i + 1; j < h.size(); ++j) {
          const int kind = dep_kind_index(h[i].mode, h[j].mode);
          if (kind < 0) continue;
          std::string dirs;
          for (std::size_t t = 0; t < common_len.at({h[i].stmt, h[j].stmt});
               ++t) {
            dirs += h[j].vals[t] < h[i].vals[t]   ? '>'
                    : h[j].vals[t] > h[i].vals[t] ? '<'
                                                  : '=';
          }
          observed.insert(std::to_string(h[i].site) + ">" +
                          std::to_string(h[j].site) + "|" +
                          std::to_string(kind) + "|" + dirs);
        }
      }
    }
  }

  // Expected set: each reported dependence expanded over its '*' loops,
  // restricted to realizable vectors (lexicographically positive, or all
  // '=' for loop-independent records; '<'/'>' need extent >= 2).
  const analysis::DependenceAnalysis da = analysis::analyze_dependences(prog);
  std::set<std::string> expected;
  std::map<std::string, const analysis::Dependence*> owner;
  for (const analysis::Dependence& d : da.deps) {
    const std::int32_t src = interp.site_of(d.src);
    const std::int32_t dst = interp.site_of(d.dst);
    const int kind = d.kind == analysis::DepKind::kFlow   ? 0
                     : d.kind == analysis::DepKind::kAnti ? 1
                                                          : 2;
    std::string dirs(d.loops.size(), '=');
    const std::function<void(std::size_t)> expand = [&](std::size_t t) {
      if (t == d.loops.size()) {
        const std::size_t first = dirs.find_first_not_of('=');
        if (first == std::string::npos ? !d.loop_independent
                                       : dirs[first] != '<')
          return;
        const std::string key = std::to_string(src) + ">" +
                                std::to_string(dst) + "|" +
                                std::to_string(kind) + "|" + dirs;
        expected.insert(key);
        owner.emplace(key, &d);
        return;
      }
      if (d.loops[t].dir == analysis::Direction::kEq) {
        expand(t + 1);
        return;
      }
      for (char c : {'<', '=', '>'}) {
        if (c != '=' && interp.extent(d.loops[t].var) < 2) continue;
        dirs[t] = c;
        expand(t + 1);
        dirs[t] = '=';
      }
    };
    expand(0);
  }

  for (const std::string& key : observed) {
    if (expected.count(key)) continue;
    add_mismatch(report, "dependence",
                 "observed dependence not reported by the analysis: "
                 "src-site>dst-site|kind(0=flow,1=anti,2=output)|dirs = " +
                     key);
    return;  // one counterexample per program suffices
  }
  for (const std::string& key : expected) {
    if (observed.count(key)) continue;
    const analysis::Dependence& d = *owner.at(key);
    add_mismatch(report, "dependence",
                 "reported dependence never observed in the replay: " + key +
                     " (" + std::string(analysis::dep_kind_name(d.kind)) +
                     " on " + d.array + ", " + d.src_label + " -> " +
                     d.dst_label + " " + d.direction_string() + ")");
    return;
  }
}

// ---------------------------------------------------------------------------
// Advisor-legality oracle: every recommendation must preserve dataflow and
// report honest per-site miss counts.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kAdviseAccessBudget = 50'000;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Hash of the final memory state under value-provenance semantics: each
// write stores a hash of (its site, the values its statement instance
// read, in order); unwritten elements read as a hash of their address. Any
// semantics-preserving reordering of statement instances leaves every
// read's producing write unchanged, hence the same final state; a
// reordering that breaks a flow/anti/output dependence changes it.
std::uint64_t dataflow_fingerprint(const ir::Program& prog,
                                   const sym::Env& env) {
  trace::CompiledProgram cp(prog, env);
  std::map<std::uint64_t, std::uint64_t> mem;
  std::vector<std::uint64_t> reads;
  cp.walk([&](const trace::Access& a) {
    if (a.mode == ir::AccessMode::kRead) {
      const auto it = mem.find(a.addr);
      reads.push_back(it != mem.end() ? it->second : mix64(a.addr));
      return;
    }
    // The statement grammar ends every instance with exactly one write,
    // which consumes the reads accumulated since the previous write.
    std::uint64_t h =
        mix64(std::uint64_t{0x5d1f00d5} + static_cast<std::uint64_t>(a.site));
    for (const std::uint64_t r : reads) h = mix64(h ^ r);
    mem[a.addr] = h;
    reads.clear();
  });
  std::uint64_t fp = 0x8f1e3a77c9b2d4e5ULL;
  for (const auto& [addr, v] : mem) fp += mix64(v ^ mix64(addr));
  return fp;
}

void check_advise_claims(OracleReport& report, const ir::Program& prog,
                         const sym::Env& env, const OracleOptions& opts) {
  if (report.accesses > kAdviseAccessBudget) return;

  analysis::AdvisorOptions aopts;
  aopts.capacity = kPerSiteCapacity;
  aopts.max_band_loops = 4;
  aopts.max_candidates = 8;
  aopts.tile_sizes = {2, 3};
  aopts.predict.enum_limit = std::int64_t{1} << 16;
  aopts.governor = opts.governor;
  const analysis::AdvisorReport rep = analysis::advise(prog, env, aopts);

  const std::uint64_t base_fp = dataflow_fingerprint(prog, env);
  for (const analysis::Advice& a : rep.advice) {
    if (governor_should_stop(opts.governor)) {
      report.truncated = true;
      return;
    }
    sym::Env full = env;
    for (const auto& [k, v] : a.env_extra) full[k] = v;

    if (dataflow_fingerprint(a.transformed, full) != base_fp) {
      add_mismatch(report, "advise-legality",
                   "recommended transform changes program dataflow: " +
                       a.title);
      return;
    }

    // Score honesty: an exact (or profiler-backed) claim must reproduce
    // bit-identically on the profiler, per-site miss counts included.
    if (a.confidence != model::Confidence::kExact && !a.simulated) continue;
    trace::CompiledProgram cp(a.transformed, full);
    const cachesim::SimResult ref =
        cachesim::profile_stack_distances(cp).result(aopts.capacity);
    bool same =
        static_cast<std::uint64_t>(a.predicted_misses) == ref.misses &&
        a.predicted_by_site.size() == ref.misses_by_site.size();
    for (std::size_t i = 0; same && i < a.predicted_by_site.size(); ++i)
      same = static_cast<std::uint64_t>(a.predicted_by_site[i]) ==
             ref.misses_by_site[i];
    if (!same) {
      std::ostringstream os;
      os << "claimed miss counts diverge from the profiler for '" << a.title
         << "': claimed " << a.predicted_misses << ", profiled "
         << ref.misses << " at capacity " << aopts.capacity;
      add_mismatch(report, "advise-score", os.str());
      return;
    }
  }
}

/// Full sweeps and simulated misses are the most expensive serve requests;
/// bound the trace of a program whose end-to-end case may be one of them.
constexpr std::uint64_t kServeSweepAccessBudget = 200'000;

/// Frames `r` exactly as the daemon writes it and reads it back through the
/// client's line reader. Returns the decoded payload, or nullopt with
/// `problem` set when the reply does not survive the wire as one line.
std::optional<std::string> framed_payload(const serve::Response& r,
                                          std::string& problem) {
  try {
    std::string wire = serve::render_response(r) + "\n";
    std::string line;
    if (!serve::take_line(wire, line) || !wire.empty()) {
      problem = "reply spans more than one line";
      return std::nullopt;
    }
    return serve::parse_response(line).payload;
  } catch (const Error& e) {
    problem = e.what();
    return std::nullopt;
  }
}

/// Serve-vs-CLI equivalence (DESIGN.md §8, §16). Both front doors call
/// analysis::run_verb, so only what the daemon adds is checked:
///  - decoding: every request line below must decode into the VerbRequest
///    `sdlo <verb>` builds from the same flags (equal once resolved);
///  - end to end: one case per program, picked by its structural hash, is
///    answered through an in-process serve::Service, framed and read back
///    as a client sees it, with the bytes run_verb prints for `--json` —
///    once as a memo miss and once more as a memo hit.
void check_serve_equivalence(OracleReport& report, const ir::Program& prog,
                             const sym::Env& env, const OracleOptions& opts) {
  using analysis::Verb;
  struct Case {
    std::string label;          ///< the verb plus the request knobs it sets
    analysis::VerbRequest cli;  ///< what `sdlo <verb>` builds from the flags
    std::string extra;          ///< the same knobs as request members
    std::uint64_t budget;       ///< largest trace it runs end to end on
  };
  constexpr std::uint64_t kAny = ~std::uint64_t{0};
  const std::int64_t cap = kPerSiteCapacity;
  const std::string cap_member = ",\"cap\":" + std::to_string(cap);
  const std::vector<Case> cases = {
      {"analyze", {.verb = Verb::kAnalyze}, "", kAny},
      {"misses", {.verb = Verb::kMisses, .cap = cap}, cap_member, kAny},
      {"lint", {.verb = Verb::kLint}, "", kAny},
      {"misses simulate",
       {.verb = Verb::kMisses, .cap = cap, .simulate = true},
       cap_member + ",\"simulate\":true", kServeSweepAccessBudget},
      {"sweep", {.verb = Verb::kSweep}, "", kServeSweepAccessBudget},
      {"sweep engine=symbolic", {.verb = Verb::kSweep, .engine = "symbolic"},
       ",\"engine\":\"symbolic\"", kServeSweepAccessBudget},
      {"sweep sites", {.verb = Verb::kSweep, .sites = true},
       ",\"sites\":true", kServeSweepAccessBudget},
      {"sweep line=4", {.verb = Verb::kSweep, .line = 4}, ",\"line\":4",
       kServeSweepAccessBudget},
      {"advise", {.verb = Verb::kAdvise}, "", kAdviseAccessBudget},
  };

  const std::string text = ir::to_code_string(prog);
  std::string envs;
  for (const auto& [name, value] : env) {
    envs += (envs.empty() ? "{\"" : ",\"") + serve::json_escape(name) +
            "\":" + std::to_string(value);
  }
  envs += envs.empty() ? "{}" : "}";
  const auto cli_request = [&](const Case& c) {
    analysis::VerbRequest req = c.cli;
    req.program = text;
    req.env = env;
    return req;
  };
  const auto request_line = [&](const Case& c) {
    const std::string verb = analysis::verb_name(c.cli.verb);
    return "{\"id\":\"" + verb + "\",\"verb\":\"" + verb +
           "\",\"program\":\"" + serve::json_escape(text) +
           "\",\"env\":" + envs + c.extra + "}";
  };

  std::vector<const Case*> eligible;
  for (const Case& c : cases) {
    if (report.accesses <= c.budget) eligible.push_back(&c);
    try {
      if (analysis::resolve(serve::parse_request(request_line(c)).call) !=
          analysis::resolve(cli_request(c))) {
        add_mismatch(report, "serve-decode",
                     c.label + ": the request decodes to another question "
                               "than `sdlo " +
                         analysis::verb_name(c.cli.verb) + "` asks");
      }
    } catch (const Error& e) {
      add_mismatch(report, "serve-decode", c.label + ": " + e.what());
    }
  }

  if (governor_should_stop(opts.governor)) {
    report.truncated = true;
    return;
  }
  // The pick depends on the program alone, so a replayed artifact runs
  // the case that failed.
  const Case& c = *eligible[ir::structural_hash(prog) % eligible.size()];
  std::ostringstream os;
  analysis::run_verb(cli_request(c), /*json=*/true, nullptr, os);
  std::string expected = os.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  serve::Service service;
  const std::string line = request_line(c);
  std::string problem;
  const serve::Response r1 = service.handle_line(line);
  const std::optional<std::string> p1 = framed_payload(r1, problem);
  if (!p1) {
    add_mismatch(report, "serve", c.label + ": " + problem);
    return;
  }
  if (*p1 != expected) {
    add_mismatch(report, "serve",
                 c.label + ": daemon payload differs from the CLI emitter (" +
                     std::to_string(p1->size()) + " vs " +
                     std::to_string(expected.size()) + " bytes; status " +
                     serve::status_name(r1.status) +
                     (r1.error.empty() ? "" : ", error: " + r1.error) + ")");
    return;
  }
  if (r1.status != serve::Status::kOk) return;  // not memoized
  const serve::Response r2 = service.handle_line(line);
  const std::optional<std::string> p2 = framed_payload(r2, problem);
  if (!r2.cached) {
    add_mismatch(report, "serve",
                 c.label + ": repeated request missed the memo cache");
  } else if (!p2) {
    add_mismatch(report, "serve", c.label + ": cached reply: " + problem);
  } else if (*p2 != expected) {
    add_mismatch(report, "serve",
                 c.label + ": cached payload is not byte-identical");
  }
}

}  // namespace

std::vector<SimResult> reference_sweep(
    const trace::CompiledProgram& cp,
    const std::vector<cachesim::SweepConfig>& configs) {
  std::vector<SimResult> out;
  out.reserve(configs.size());
  for (const auto& c : configs) {
    out.push_back(
        cachesim::simulate_lru_lines(cp, c.capacity_elems, c.line_elems));
  }
  return out;
}

OracleReport check_program(const ir::Program& prog, const sym::Env& env,
                           const OracleOptions& opts) {
  OracleReport report;
  // Polled before each oracle family: a tripped governor ends the battery
  // with the partial report marked truncated (the families already run are
  // complete and their mismatches are real).
  const auto out_of_budget = [&report, &opts] {
    if (!governor_should_stop(opts.governor)) {
      failpoints::hit(failpoints::kOracleStep);
      return false;
    }
    report.truncated = true;
    return true;
  };
  if (opts.check_roundtrip && !out_of_budget()) check_roundtrip(report, prog);

  trace::CompiledProgram cp(prog, env);
  report.accesses = cp.total_accesses();
  if (report.accesses > opts.max_trace_accesses) {
    report.skipped = true;
    return report;
  }
  if (opts.check_walker && !out_of_budget()) check_walker(report, cp);
  if (opts.check_model && !out_of_budget()) {
    check_model(report, prog, env, cp);
  }
  if (opts.check_profile && !out_of_budget()) check_profile(report, cp);
  if (opts.check_sweep && !out_of_budget()) check_sweep(report, cp);
  if (opts.check_set_assoc && !out_of_budget()) {
    check_set_assoc_edges(report, cp);
  }
  if (opts.check_budgeted && !out_of_budget()) {
    check_budgeted_degradation(report, cp);
  }
  if (opts.check_lint && !out_of_budget()) check_lint_gate(report, prog, env);
  if (opts.check_parallel && !out_of_budget()) {
    check_parallel_claims(report, prog, env);
  }
  if (opts.check_dependence && !out_of_budget()) {
    check_dependence_claims(report, prog, env);
  }
  if (opts.check_advise && !out_of_budget()) {
    check_advise_claims(report, prog, env, opts);
  }
  if (opts.check_serve && !out_of_budget()) {
    check_serve_equivalence(report, prog, env, opts);
  }
  return report;
}

namespace {

/// Name → flag table behind `sdlo fuzz --only`, in battery order.
struct FamilyEntry {
  const char* name;
  bool OracleOptions::*flag;
};

constexpr std::array<FamilyEntry, 12> kFamilies = {{
    {"roundtrip", &OracleOptions::check_roundtrip},
    {"walker", &OracleOptions::check_walker},
    {"model", &OracleOptions::check_model},
    {"profile", &OracleOptions::check_profile},
    {"sweep", &OracleOptions::check_sweep},
    {"set-assoc", &OracleOptions::check_set_assoc},
    {"lint", &OracleOptions::check_lint},
    {"parallel", &OracleOptions::check_parallel},
    {"budgeted", &OracleOptions::check_budgeted},
    {"dependence", &OracleOptions::check_dependence},
    {"advise", &OracleOptions::check_advise},
    {"serve", &OracleOptions::check_serve},
}};

}  // namespace

std::vector<std::string> oracle_family_names() {
  std::vector<std::string> names;
  names.reserve(kFamilies.size());
  for (const FamilyEntry& f : kFamilies) names.emplace_back(f.name);
  return names;
}

void apply_family_filter(OracleOptions& opts, const std::string& only) {
  if (only.empty()) return;
  for (const FamilyEntry& f : kFamilies) opts.*(f.flag) = false;
  std::stringstream ss(only);
  std::string name;
  while (std::getline(ss, name, ',')) {
    bool found = false;
    for (const FamilyEntry& f : kFamilies) {
      if (name == f.name) {
        opts.*(f.flag) = true;
        found = true;
        break;
      }
    }
    if (!found) {
      std::string valid;
      for (const FamilyEntry& f : kFamilies) {
        if (!valid.empty()) valid += ", ";
        valid += f.name;
      }
      throw Error("unknown oracle family '" + name +
                  "' (valid families: " + valid + ")");
    }
  }
}

namespace {

std::string render(const ir::Program& prog, const sym::Env& env,
                   const OracleReport& report, const std::string& origin) {
  std::ostringstream os;
  os << "differential oracle failure (" << report.mismatches.size()
     << " mismatch" << (report.mismatches.size() == 1 ? "" : "es") << ")\n";
  if (!origin.empty()) os << origin << "\n";
  os << "env:";
  for (const auto& [name, value] : env) os << " " << name << "=" << value;
  os << "\nprogram (replayable through ir::parse_program):\n"
     << ir::to_code_string(prog);
  for (const auto& m : report.mismatches) {
    os << "[" << m.oracle << "] " << m.detail << "\n";
  }
  return os.str();
}

}  // namespace

std::string describe_failure(const GeneratedProgram& gp,
                             const OracleReport& report) {
  std::ostringstream origin;
  origin << "seed " << gp.seed << " index " << gp.index
         << " (replay: ProgramGenerator(" << gp.seed << ").generate() x"
         << (gp.index + 1) << ", or `sdlo fuzz --seed " << gp.seed << "`)";
  return render(gp.prog, gp.env, report, origin.str());
}

std::string describe_failure(const ir::Program& prog, const sym::Env& env,
                             const OracleReport& report) {
  return render(prog, env, report, "");
}

}  // namespace sdlo::fuzz
