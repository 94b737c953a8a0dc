// The analytic capacity sweep must be indistinguishable from simulation on
// model-exact programs: the symbolic stack-distance histogram bit-identical
// to the trace profiler's, the miss-vs-capacity curve bit-identical to
// simulate_sweep_streamed at every capacity — including every crossing
// point and the capacities straddling it — per-site attribution included.
// Inexact programs must be flagged (Confidence::kApproximate) so the sweep
// driver routes them to the simulation fallback, and the Governor must
// truncate the evaluation into a valid best-so-far partial curve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sweep_driver.hpp"
#include "cachesim/parallel_stack.hpp"
#include "cachesim/sim.hpp"
#include "fuzz/generator.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "model/analyzer.hpp"
#include "model/bound_partition.hpp"
#include "model/symbolic_sweep.hpp"
#include "support/check.hpp"
#include "support/governor.hpp"
#include "trace/walker.hpp"

namespace {

using namespace sdlo;

struct GalleryCase {
  std::string name;
  ir::GalleryProgram g;
  std::vector<std::int64_t> bounds;
  std::vector<std::int64_t> tiles;
};

std::vector<GalleryCase> gallery_cases() {
  std::vector<GalleryCase> cases;
  cases.push_back({"matmul", ir::matmul(), {12, 12, 12}, {}});
  cases.push_back({"matmul_tiled", ir::matmul_tiled(),
                   {16, 16, 16}, {4, 8, 4}});
  cases.push_back({"two_index_fused", ir::two_index_fused(),
                   {8, 8, 8, 8}, {}});
  cases.push_back({"two_index_tiled", ir::two_index_tiled(),
                   {16, 16, 16, 16}, {4, 8, 8, 4}});
  cases.push_back({"two_index_unfused", ir::two_index_unfused(),
                   {8, 8, 8, 8}, {}});
  return cases;
}

TEST(SymbolicSweepTest, HistogramBitIdenticalToProfilerOnGallery) {
  for (const auto& c : gallery_cases()) {
    const sym::Env env = c.g.make_env(c.bounds, c.tiles);
    const auto an = model::analyze(c.g.prog);
    const auto sweep = model::symbolic_sweep(an, env);
    ASSERT_EQ(sweep.confidence, model::Confidence::kExact) << c.name;
    ASSERT_EQ(sweep.completeness, Completeness::kComplete) << c.name;
    EXPECT_EQ(sweep.accounted_accesses, sweep.total_accesses) << c.name;

    const trace::CompiledProgram cp(c.g.prog, env);
    const auto prof = cachesim::profile_stack_distances(cp);
    const auto got = sweep.profile();
    EXPECT_EQ(got.accesses, prof.accesses) << c.name;
    EXPECT_EQ(got.cold, prof.cold) << c.name;
    EXPECT_EQ(got.histogram, prof.histogram) << c.name;
    EXPECT_EQ(got.cold_by_site, prof.cold_by_site) << c.name;
    EXPECT_EQ(got.histogram_by_site, prof.histogram_by_site) << c.name;
  }
}

TEST(SymbolicSweepTest, CurveMatchesSimulationAtEveryCapacityAndCrossing) {
  for (const auto& c : gallery_cases()) {
    const sym::Env env = c.g.make_env(c.bounds, c.tiles);
    const auto an = model::analyze(c.g.prog);
    const auto sweep = model::symbolic_sweep(an, env);
    ASSERT_EQ(sweep.confidence, model::Confidence::kExact) << c.name;

    // Every crossing point, both straddling neighbors, plus a ladder.
    std::set<std::int64_t> caps{1, 2, 3, 16, 64, 250, 1024, 65536};
    for (std::int64_t d : sweep.crossing_points()) {
      if (d > 1) caps.insert(d - 1);
      caps.insert(d);
      caps.insert(d + 1);
    }

    const trace::CompiledProgram cp(c.g.prog, env);
    std::vector<std::int64_t> cap_list(caps.begin(), caps.end());
    // The marker-stack engine takes at most 254 capacities per call.
    for (std::size_t base = 0; base < cap_list.size(); base += 200) {
      const std::size_t n = std::min<std::size_t>(200, cap_list.size() - base);
      std::vector<cachesim::SweepConfig> configs;
      for (std::size_t i = 0; i < n; ++i) {
        configs.push_back({cap_list[base + i], 1});
      }
      const auto simulated = cachesim::simulate_sweep_streamed(cp, configs);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t cap = cap_list[base + i];
        const auto got = sweep.result_at(cap);
        const auto& want = simulated[i];
        EXPECT_EQ(got.accesses, want.accesses) << c.name << " cap=" << cap;
        EXPECT_EQ(got.misses, want.misses) << c.name << " cap=" << cap;
        EXPECT_EQ(got.misses_by_site, want.misses_by_site)
            << c.name << " cap=" << cap;
      }
    }
  }
}

TEST(SymbolicSweepTest, CrossingPointsAreExactlyWhereTheCurveChanges) {
  const auto c = gallery_cases()[1];  // tiled matmul: rich curve
  const sym::Env env = c.g.make_env(c.bounds, c.tiles);
  const auto an = model::analyze(c.g.prog);
  const auto sweep = model::symbolic_sweep(an, env);
  const auto crossings = sweep.crossing_points();
  ASSERT_FALSE(crossings.empty());
  EXPECT_TRUE(std::is_sorted(crossings.begin(), crossings.end()));
  for (std::int64_t d : crossings) {
    // Accesses of depth d hit once capacity reaches d.
    EXPECT_LT(sweep.misses_at(d), sweep.misses_at(d - 1)) << "d=" << d;
  }
  // Between consecutive crossings the curve is flat.
  for (std::size_t i = 0; i + 1 < crossings.size(); ++i) {
    EXPECT_EQ(sweep.misses_at(crossings[i]),
              sweep.misses_at(crossings[i + 1] - 1));
  }
}

TEST(SymbolicSweepTest, InvarianceReductionCollapsesAxes) {
  // The reduction is what makes the engine O(model): on the gallery it must
  // actually fire, not silently degrade to full enumeration.
  bool any_dropped = false;
  for (const auto& c : gallery_cases()) {
    const auto an = model::analyze(c.g.prog);
    const auto sweep =
        model::symbolic_sweep(an, c.g.make_env(c.bounds, c.tiles));
    for (const auto& pc : sweep.parts) any_dropped |= pc.axes_dropped > 0;
  }
  EXPECT_TRUE(any_dropped);
}

TEST(SymbolicSweepTest, DisjointDecompositionMatchesUnionCounter) {
  // The per-box cardinality sum is only sound if the certified
  // decomposition covers exactly the union's point set with no double
  // counting. Cross-check it against the inclusion-exclusion union counter
  // at random coordinates on every gallery partition, and require the
  // rewrite to actually fire somewhere (it is what collapses the tiled
  // matmul's boundary partitions).
  bool any_rewritten = false;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (const auto& c : gallery_cases()) {
    const auto an = model::analyze(c.g.prog);
    const auto full_env =
        an.symtab.bind_extents(c.g.make_env(c.bounds, c.tiles));
    for (const auto& pa : an.parts) {
      if (pa.part.divergence == model::Divergence::kCold) continue;
      auto bp = model::bind_partition(pa, full_env);
      bool empty = false;
      for (const auto& [lo, hi] : bp.domains) empty |= hi < lo;
      if (empty) continue;
      std::vector<std::int64_t> v(bp.domains.size(), 0);
      for (std::size_t a = 0; a < bp.boxes.size(); ++a) {
        const auto dd =
            model::disjoint_decomposition(bp.boxes[a], bp.domains);
        if (!dd) continue;
        any_rewritten |= dd->size() != bp.boxes[a].size();
        for (int trial = 0; trial < 64; ++trial) {
          for (std::size_t k = 0; k < v.size(); ++k) {
            const auto& [lo, hi] = bp.domains[k];
            v[k] = lo + static_cast<std::int64_t>(
                            next() %
                            static_cast<std::uint64_t>(hi - lo + 1));
          }
          std::int64_t sum = 0;
          for (const auto& box : *dd) {
            sum += model::box_cardinality(box, v);
          }
          ASSERT_EQ(sum, bp.counter.count(bp.boxes[a], v))
              << c.name << " array " << a;
        }
      }
    }
  }
  EXPECT_TRUE(any_rewritten);
}

TEST(SymbolicSweepTest, TinyEnumLimitFlagsInexactPartitions) {
  // With enumeration disabled, varying-depth partitions cannot be resolved
  // and the sweep must say so instead of guessing.
  model::SymbolicSweepOptions opts;
  opts.enum_limit = 1;
  bool any_approximate = false;
  for (const auto& c : gallery_cases()) {
    const auto an = model::analyze(c.g.prog);
    const auto sweep =
        model::symbolic_sweep(an, c.g.make_env(c.bounds, c.tiles), opts);
    if (sweep.confidence == model::Confidence::kApproximate) {
      any_approximate = true;
      bool any_inexact_part = false;
      for (const auto& pc : sweep.parts) any_inexact_part |= !pc.exact;
      EXPECT_TRUE(any_inexact_part) << c.name;
    }
  }
  EXPECT_TRUE(any_approximate);
}

TEST(SymbolicSweepTest, GovernorCancellationTruncatesToPartialCurve) {
  const auto c = gallery_cases()[3];  // two_index_tiled: many partitions
  const sym::Env env = c.g.make_env(c.bounds, c.tiles);
  const auto an = model::analyze(c.g.prog);
  const auto full = model::symbolic_sweep(an, env);
  ASSERT_EQ(full.completeness, Completeness::kComplete);

  Governor gov;
  gov.poll_interval = 64;
  gov.cancel.cancel_after(3);
  const auto partial = model::symbolic_sweep(an, env, {}, &gov);
  EXPECT_EQ(partial.completeness, Completeness::kTruncated);
  EXPECT_LT(partial.accounted_accesses, full.accounted_accesses);
  EXPECT_LT(partial.parts.size(), full.parts.size());
  // The partial curve is a lower bound of the full curve everywhere.
  for (std::int64_t cap : {1, 16, 256, 4096}) {
    EXPECT_LE(partial.misses_at(cap), full.misses_at(cap)) << cap;
  }
}

TEST(SymbolicSweepTest, UngovernedEqualsGovernedWithRoomToSpare) {
  const auto c = gallery_cases()[0];
  const sym::Env env = c.g.make_env(c.bounds, c.tiles);
  const auto an = model::analyze(c.g.prog);
  Governor gov;  // never expires, never cancelled
  const auto a = model::symbolic_sweep(an, env);
  const auto b = model::symbolic_sweep(an, env, {}, &gov);
  EXPECT_EQ(a.histogram, b.histogram);
  EXPECT_EQ(a.cold, b.cold);
  EXPECT_EQ(b.completeness, Completeness::kComplete);
}

TEST(SymbolicSweepTest, DeniedHistogramBlockTruncatesToFinishedPartitions) {
  // A budget that denies every block stops the sweep at its first
  // histogram entry: the in-flight partition is dropped, the cold ones
  // finished before it are kept, and nothing stays reserved.
  const auto c = gallery_cases()[3];  // two_index_tiled: many partitions
  const sym::Env env = c.g.make_env(c.bounds, c.tiles);
  const auto an = model::analyze(c.g.prog);
  const auto full = model::symbolic_sweep(an, env);
  MemoryBudget zero(0);
  Governor gov;
  gov.memory = &zero;
  const auto denied = model::symbolic_sweep(an, env, {}, &gov);
  EXPECT_EQ(denied.completeness, Completeness::kTruncated);
  EXPECT_TRUE(denied.histogram.empty());
  EXPECT_LT(denied.accounted_accesses, full.accounted_accesses);
  for (const auto& pc : denied.parts) EXPECT_TRUE(pc.cold);
  for (std::int64_t cap : {1, 16, 256, 4096}) {
    EXPECT_LE(denied.misses_at(cap), full.misses_at(cap)) << cap;
  }
  EXPECT_EQ(zero.used(), 0u);

  // One block holds this sweep's entries: the same histogram, complete.
  // The result keeps the block while it holds the histograms, and returns
  // it when it is dropped.
  MemoryBudget roomy(std::uint64_t{1} << 20);
  gov.memory = &roomy;
  {
    const auto fits = model::symbolic_sweep(an, env, {}, &gov);
    EXPECT_EQ(fits.completeness, Completeness::kComplete);
    EXPECT_EQ(fits.histogram, full.histogram);
    EXPECT_EQ(fits.histogram_by_site, full.histogram_by_site);
    EXPECT_GT(roomy.used(), 0u);
    EXPECT_EQ(roomy.used(), fits.charge.bytes());
  }
  EXPECT_EQ(roomy.used(), 0u);
}

// ---------------------------------------------------------------------------
// Engine selection and fallback policy (analysis::run_sweep)
// ---------------------------------------------------------------------------

TEST(SweepDriverTest, ParsesEngineNames) {
  EXPECT_EQ(analysis::parse_sweep_engine("simulate"),
            analysis::SweepEngine::kSimulate);
  EXPECT_EQ(analysis::parse_sweep_engine("simulated"),
            analysis::SweepEngine::kSimulate);
  EXPECT_EQ(analysis::parse_sweep_engine("symbolic"),
            analysis::SweepEngine::kSymbolic);
  EXPECT_THROW(analysis::parse_sweep_engine("marker"), Error);
}

TEST(SweepDriverTest, SymbolicEngineJsonGolden) {
  // The JSON schema scripts depend on, pinned exactly: engine attribution,
  // fallback flag, confidence, rows, and the crossing points.
  const auto g = ir::matmul();
  const sym::Env env = g.make_env({4, 4, 4}, {});
  analysis::SweepDriverOptions opts;
  opts.engine = analysis::SweepEngine::kSymbolic;
  const auto oc = analysis::run_sweep(g.prog, env, opts);
  EXPECT_EQ(oc.engine, "symbolic");
  EXPECT_FALSE(oc.fell_back);
  EXPECT_EQ(oc.exit_code(), 0);
  std::ostringstream os;
  analysis::render_sweep_json(oc, os, /*sites=*/true);
  EXPECT_EQ(
      os.str(),
      "{\"version\":\"1.0.0\",\"engine\":\"symbolic\",\"fell_back\":false,"
      "\"confidence\":\"exact\",\"line_elems\":1,\"accesses\":256,"
      "\"completeness\":\"complete\",\"rows\":["
      "{\"capacity\":1,\"misses\":192,\"misses_by_site\":[64,64,64,0]},"
      "{\"capacity\":2,\"misses\":192,\"misses_by_site\":[64,64,64,0]},"
      "{\"capacity\":4,\"misses\":144,\"misses_by_site\":[16,64,64,0]},"
      "{\"capacity\":8,\"misses\":144,\"misses_by_site\":[16,64,64,0]},"
      "{\"capacity\":16,\"misses\":96,\"misses_by_site\":[16,64,16,0]},"
      "{\"capacity\":32,\"misses\":48,\"misses_by_site\":[16,16,16,0]},"
      "{\"capacity\":64,\"misses\":48,\"misses_by_site\":[16,16,16,0]}],"
      "\"crossings\":[1,3,9,10,25,26,27,28,29]}\n");
}

TEST(SweepDriverTest, EnginesAgreeRowForRow) {
  for (const auto& c : gallery_cases()) {
    const sym::Env env = c.g.make_env(c.bounds, c.tiles);
    analysis::SweepDriverOptions sym_opts;
    sym_opts.engine = analysis::SweepEngine::kSymbolic;
    analysis::SweepDriverOptions sim_opts;
    sim_opts.engine = analysis::SweepEngine::kSimulate;
    const auto a = analysis::run_sweep(c.g.prog, env, sym_opts);
    const auto b = analysis::run_sweep(c.g.prog, env, sim_opts);
    ASSERT_EQ(a.engine, "symbolic") << c.name;
    ASSERT_EQ(b.engine, "simulated") << c.name;
    EXPECT_EQ(a.accesses, b.accesses) << c.name;
    ASSERT_EQ(a.rows.size(), b.rows.size()) << c.name;
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
      EXPECT_EQ(a.rows[i].misses, b.rows[i].misses)
          << c.name << " cap=" << a.capacities[i];
      EXPECT_EQ(a.rows[i].misses_by_site, b.rows[i].misses_by_site)
          << c.name << " cap=" << a.capacities[i];
    }
  }
}

TEST(SweepDriverTest, InexactProgramFallsBackToSimulation) {
  // With enumeration disabled some gallery program must go approximate; the
  // driver then answers by simulation and says so in both renderings.
  bool found = false;
  for (const auto& c : gallery_cases()) {
    const sym::Env env = c.g.make_env(c.bounds, c.tiles);
    analysis::SweepDriverOptions opts;
    opts.engine = analysis::SweepEngine::kSymbolic;
    opts.symbolic.enum_limit = 1;
    const auto oc = analysis::run_sweep(c.g.prog, env, opts);
    if (!oc.fell_back) continue;
    found = true;
    EXPECT_EQ(oc.engine, "simulated") << c.name;
    EXPECT_EQ(oc.confidence, model::Confidence::kApproximate) << c.name;
    EXPECT_NE(oc.fallback_reason.find("AP105"), std::string::npos) << c.name;
    EXPECT_EQ(oc.exit_code(), 0) << c.name;

    // The fallback rows are the simulated answer, not a symbolic guess.
    analysis::SweepDriverOptions sim_opts;
    sim_opts.engine = analysis::SweepEngine::kSimulate;
    const auto ref = analysis::run_sweep(c.g.prog, env, sim_opts);
    ASSERT_EQ(oc.rows.size(), ref.rows.size()) << c.name;
    for (std::size_t i = 0; i < oc.rows.size(); ++i) {
      EXPECT_EQ(oc.rows[i].misses, ref.rows[i].misses) << c.name;
    }

    std::ostringstream text;
    analysis::render_sweep_text(oc, text, /*sites=*/false);
    EXPECT_NE(text.str().find("fallback from symbolic"), std::string::npos);
    std::ostringstream json;
    analysis::render_sweep_json(oc, json, /*sites=*/false);
    EXPECT_NE(json.str().find("\"version\":\"1.0.0\""), std::string::npos);
    EXPECT_NE(json.str().find("\"engine\":\"simulated\""), std::string::npos);
    EXPECT_NE(json.str().find("\"fell_back\":true"), std::string::npos);
    EXPECT_NE(json.str().find("\"fallback_reason\":"), std::string::npos);
    break;
  }
  EXPECT_TRUE(found);
}

TEST(SweepDriverTest, ProbedPartitionFallsBackToSimulation) {
  // Generated program 9 of seed 1 at enum_limit 1 is exact only because
  // its one partition too large to enumerate probed to a constant depth.
  // A sampled depth is not an enumerated one: the driver walks instead,
  // and says so.
  fuzz::ProgramGenerator gen(1);
  fuzz::GeneratedProgram gp;
  for (int i = 0; i <= 9; ++i) gp = gen.generate();
  model::SymbolicSweepOptions tiny;
  tiny.enum_limit = 1;
  const auto sweep =
      model::symbolic_sweep(model::analyze(gp.prog), gp.env, tiny);
  ASSERT_EQ(sweep.confidence, model::Confidence::kExact);
  ASSERT_EQ(std::count_if(sweep.parts.begin(), sweep.parts.end(),
                          [](const auto& pc) { return pc.probed; }),
            1);

  analysis::SweepDriverOptions opts;
  opts.engine = analysis::SweepEngine::kSymbolic;
  opts.symbolic = tiny;
  const auto oc = analysis::run_sweep(gp.prog, gp.env, opts);
  EXPECT_EQ(oc.engine, "simulated");
  EXPECT_TRUE(oc.fell_back);
  EXPECT_NE(oc.fallback_reason.find("sampled"), std::string::npos)
      << oc.fallback_reason;
  EXPECT_EQ(oc.confidence, model::Confidence::kExact);
  analysis::SweepDriverOptions sim_opts;
  sim_opts.engine = analysis::SweepEngine::kSimulate;
  const auto ref = analysis::run_sweep(gp.prog, gp.env, sim_opts);
  ASSERT_EQ(oc.rows.size(), ref.rows.size());
  for (std::size_t i = 0; i < oc.rows.size(); ++i) {
    EXPECT_EQ(oc.rows[i].misses, ref.rows[i].misses) << i;
    EXPECT_EQ(oc.rows[i].misses_by_site, ref.rows[i].misses_by_site) << i;
  }
}

/// `sdlo sweep --json --sites` of `oc`.
std::string sweep_json(const analysis::SweepOutcome& oc) {
  std::ostringstream os;
  analysis::render_sweep_json(oc, os, /*sites=*/true);
  return os.str();
}

TEST(SweepDriverTest, PlannedSweepAsksTheModelFromTwoToTheTwentyAccesses) {
  // mm.sdlo runs 4 accesses an iteration: N=63 is 1,000,188 accesses and
  // walks, N=64 is 2^20 and the model counts it. Either way a planned
  // sweep prints the walk's document, byte for byte.
  const ir::Program prog = ir::parse_program(
      "for i<N>, j<N>, k<N> { S1: C[i,k] += A[i,j] * B[j,k] }");
  analysis::SweepDriverOptions walk;
  walk.engine = analysis::SweepEngine::kSimulate;
  const sym::Env below{{"N", 63}};
  const auto small = analysis::run_sweep(prog, below);
  EXPECT_FALSE(small.model_counted);
  EXPECT_EQ(sweep_json(small),
            sweep_json(analysis::run_sweep(prog, below, walk)));

  const sym::Env at{{"N", 64}};
  const auto planned = analysis::run_sweep(prog, at);
  const auto ref = analysis::run_sweep(prog, at, walk);
  EXPECT_TRUE(planned.model_counted);
  EXPECT_FALSE(ref.model_counted);
  EXPECT_EQ(planned.accesses, std::uint64_t{1} << 20);
  EXPECT_EQ(sweep_json(planned), sweep_json(ref));

  // Threads do not change the plan (the document is the same either
  // way); a spool tees the walk and a line the model has no dimension for
  // walks too, without a fallback.
  analysis::SweepDriverOptions threads;
  threads.threads = 2;
  const auto pooled = analysis::run_sweep(prog, at, threads);
  EXPECT_TRUE(pooled.model_counted);
  EXPECT_EQ(sweep_json(pooled), sweep_json(ref));
  analysis::SweepDriverOptions line;
  line.line_elems = 2;
  const auto lined = analysis::run_sweep(prog, at, line);
  EXPECT_FALSE(lined.model_counted);
  EXPECT_FALSE(lined.fell_back);
  line.engine = analysis::SweepEngine::kSimulate;
  EXPECT_EQ(sweep_json(lined), sweep_json(analysis::run_sweep(prog, at, line)));
}

TEST(SweepDriverTest, PlannedSweepDeniedItsHistogramsWalks) {
  // Reading A down its columns after writing it along its rows gives
  // nearly every access its own depth: at N=200 the model needs more than
  // 4 MB of histogram entries, while the walk's stack tables for the 40,200
  // elements need about 0.5 MB. Under a 1 MB budget --engine symbolic
  // truncates, but a planned sweep walks and answers complete, exactly as
  // the walk does on its own.
  const ir::Program prog = ir::parse_program(R"(
    for t<T> {
      for i<N>, j<N> { S1: A[i,j] = 0 }
      for j<N>, i<N> { S2: B[i] += A[i,j] }
    })");
  const sym::Env env{{"N", 200}, {"T", 7}};
  MemoryBudget budget(std::uint64_t{1} << 20);
  Governor gov;
  gov.memory = &budget;

  analysis::SweepDriverOptions symbolic;
  symbolic.engine = analysis::SweepEngine::kSymbolic;
  const auto denied = analysis::run_sweep(prog, env, symbolic, &gov);
  EXPECT_EQ(denied.engine, "symbolic");
  EXPECT_TRUE(denied.truncated());

  const auto planned = analysis::run_sweep(prog, env, {}, &gov);
  EXPECT_FALSE(planned.model_counted);
  EXPECT_FALSE(planned.fell_back);
  EXPECT_FALSE(planned.truncated());
  EXPECT_EQ(planned.accesses, 1'120'000u);
  analysis::SweepDriverOptions walk;
  walk.engine = analysis::SweepEngine::kSimulate;
  EXPECT_EQ(sweep_json(planned),
            sweep_json(analysis::run_sweep(prog, env, walk, &gov)));
  EXPECT_EQ(budget.used(), 0u);

  // Without the budget the model counts it, with the same document.
  const auto counted = analysis::run_sweep(prog, env);
  EXPECT_TRUE(counted.model_counted);
  EXPECT_EQ(sweep_json(counted), sweep_json(planned));
}

TEST(SweepDriverTest, LineGranularityFallsBackToSimulation) {
  // The analytic model has no line dimension: --line 2 must route to the
  // trace walk even when the program itself is model-exact.
  const auto g = ir::matmul();
  const sym::Env env = g.make_env({8, 8, 8}, {});
  analysis::SweepDriverOptions opts;
  opts.engine = analysis::SweepEngine::kSymbolic;
  opts.line_elems = 2;
  const auto oc = analysis::run_sweep(g.prog, env, opts);
  EXPECT_EQ(oc.engine, "simulated");
  EXPECT_TRUE(oc.fell_back);
  EXPECT_NE(oc.fallback_reason.find("line granularity"), std::string::npos);
  // The symbolic engine was never consulted, so confidence stays exact.
  EXPECT_EQ(oc.confidence, model::Confidence::kExact);
}

TEST(SweepDriverTest, TruncatedSymbolicSweepExitsWithCode2) {
  const auto c = gallery_cases()[3];  // two_index_tiled: many partitions
  const sym::Env env = c.g.make_env(c.bounds, c.tiles);
  analysis::SweepDriverOptions opts;
  opts.engine = analysis::SweepEngine::kSymbolic;
  Governor gov;
  gov.poll_interval = 64;
  gov.cancel.cancel_after(3);
  const auto oc = analysis::run_sweep(c.g.prog, env, opts, &gov);
  ASSERT_EQ(oc.engine, "symbolic");
  EXPECT_FALSE(oc.fell_back);  // truncation is not a fallback
  EXPECT_TRUE(oc.truncated());
  EXPECT_EQ(oc.exit_code(), 2);
  // Best-so-far partial curve: every ladder row present and a lower bound
  // of the full answer.
  analysis::SweepDriverOptions full_opts;
  full_opts.engine = analysis::SweepEngine::kSymbolic;
  const auto full = analysis::run_sweep(c.g.prog, env, full_opts);
  ASSERT_EQ(oc.rows.size(), full.rows.size());
  for (std::size_t i = 0; i < oc.rows.size(); ++i) {
    EXPECT_LE(oc.rows[i].misses, full.rows[i].misses)
        << "cap=" << oc.capacities[i];
  }
  std::ostringstream json;
  analysis::render_sweep_json(oc, json, /*sites=*/false);
  EXPECT_NE(json.str().find("\"completeness\":\"truncated\""),
            std::string::npos);
  std::ostringstream text;
  analysis::render_sweep_text(oc, text, /*sites=*/false);
  EXPECT_NE(text.str().find("TRUNCATED"), std::string::npos);
}

}  // namespace
