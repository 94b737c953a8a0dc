// Differential tests for the sweep engine: simulate_sweep / simulate_many
// must be bit-identical to the per-configuration simulators on every
// gallery program, for every capacity, line size and associativity tried —
// including the per-site miss breakdown. Also covers the batched walker
// (walk_batched vs walk) and pool-vs-serial equivalence.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cachesim/lru_cache.hpp"
#include "cachesim/parallel_stack.hpp"
#include "cachesim/sim.hpp"
#include "cachesim/sweep.hpp"
#include "ir/gallery.hpp"
#include "ir/program.hpp"
#include "parallel/thread_pool.hpp"
#include "support/check.hpp"
#include "support/failpoints.hpp"
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

trace::CompiledProgram compile(const GalleryCase& c) {
  return trace::CompiledProgram(c.g.prog, c.g.make_env(c.bounds, c.tiles));
}

void expect_same(const cachesim::SimResult& got,
                 const cachesim::SimResult& want, const std::string& what) {
  EXPECT_EQ(got.accesses, want.accesses) << what;
  EXPECT_EQ(got.misses, want.misses) << what;
  EXPECT_EQ(got.misses_by_site, want.misses_by_site) << what;
}

TEST(SweepTest, MatchesSimulateLruOnEveryGalleryProgram) {
  const std::vector<std::int64_t> caps{1, 2, 3, 16, 64, 250, 1024, 65536};
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    std::vector<cachesim::SweepConfig> configs;
    for (std::int64_t cap : caps) {
      configs.push_back({cap, 1, 0, cachesim::Replacement::kLru});
    }
    const auto swept = cachesim::simulate_sweep(cp, configs);
    ASSERT_EQ(swept.size(), caps.size());
    for (std::size_t i = 0; i < caps.size(); ++i) {
      expect_same(swept[i], cachesim::simulate_lru(cp, caps[i]),
                  c.name + " cap=" + std::to_string(caps[i]));
    }
  }
}

TEST(SweepTest, MatchesSimulateLruLinesAcrossLineSizes) {
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    std::vector<cachesim::SweepConfig> configs;
    for (std::int64_t line : {2, 4, 8}) {
      for (std::int64_t mult : {1, 16, 256}) {
        configs.push_back(
            {line * mult, line, 0, cachesim::Replacement::kLru});
      }
    }
    const auto swept = cachesim::simulate_sweep(cp, configs);
    ASSERT_EQ(swept.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_same(swept[i],
                  cachesim::simulate_lru_lines(cp, configs[i].capacity_elems,
                                               configs[i].line_elems),
                  c.name + " cap=" +
                      std::to_string(configs[i].capacity_elems) + " line=" +
                      std::to_string(configs[i].line_elems));
    }
  }
}

TEST(SweepTest, MixedConfigListWithDuplicatesKeepsOrder) {
  const auto cases = gallery_cases();
  const auto cp = compile(cases[1]);  // matmul_tiled
  const std::vector<cachesim::SweepConfig> configs{
      {64, 1, 0, cachesim::Replacement::kLru},
      {256, 4, 0, cachesim::Replacement::kLru},
      {64, 1, 4, cachesim::Replacement::kLru},   // set-associative
      {64, 1, 0, cachesim::Replacement::kLru},   // duplicate of [0]
      {1024, 1, 0, cachesim::Replacement::kLru},
      {128, 2, 1, cachesim::Replacement::kLru},  // direct-mapped, lines
  };
  const auto swept = cachesim::simulate_sweep(cp, configs);
  ASSERT_EQ(swept.size(), configs.size());
  expect_same(swept[0], cachesim::simulate_lru(cp, 64), "cap=64");
  expect_same(swept[1], cachesim::simulate_lru_lines(cp, 256, 4),
              "cap=256 line=4");
  expect_same(swept[2], cachesim::simulate_set_assoc(cp, 64, 4, 1),
              "cap=64 4-way");
  expect_same(swept[3], swept[0], "duplicate config");
  expect_same(swept[4], cachesim::simulate_lru(cp, 1024), "cap=1024");
  expect_same(swept[5], cachesim::simulate_set_assoc(cp, 128, 1, 2),
              "cap=128 direct-mapped line=2");
}

TEST(SweepTest, SimulateManyMatchesSetAssoc) {
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    const std::vector<cachesim::SweepConfig> configs{
        {64, 1, 1, cachesim::Replacement::kLru},
        {64, 1, 4, cachesim::Replacement::kLru},
        {256, 4, 8, cachesim::Replacement::kLru},
        {128, 1, 0, cachesim::Replacement::kLru},  // FA via LruCache
    };
    const auto many = cachesim::simulate_many(cp, configs);
    ASSERT_EQ(many.size(), configs.size());
    expect_same(many[0], cachesim::simulate_set_assoc(cp, 64, 1, 1),
                c.name + " dm");
    expect_same(many[1], cachesim::simulate_set_assoc(cp, 64, 4, 1),
                c.name + " 4-way");
    expect_same(many[2], cachesim::simulate_set_assoc(cp, 256, 8, 4),
                c.name + " 8-way line=4");
    expect_same(many[3], cachesim::simulate_lru(cp, 128), c.name + " fa");
  }
}

TEST(SweepTest, ProfileResultMatchesSimulation) {
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    for (std::int64_t line : {1, 4}) {
      const auto prof = cachesim::profile_stack_distances(cp, line);
      for (std::int64_t cap : {line, 8 * line, 512 * line}) {
        expect_same(prof.result(cap),
                    cachesim::simulate_lru_lines(cp, cap, line),
                    c.name + " profile cap=" + std::to_string(cap) +
                        " line=" + std::to_string(line));
      }
    }
  }
}

TEST(SweepTest, PoolAndSerialAgree) {
  parallel::ThreadPool pool(4);
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    std::vector<cachesim::SweepConfig> configs;
    for (std::int64_t cap : {16, 256, 4096}) {
      configs.push_back({cap, 1, 0, cachesim::Replacement::kLru});
      configs.push_back({cap, 1, 2, cachesim::Replacement::kLru});
    }
    const auto serial = cachesim::simulate_sweep(cp, configs, nullptr);
    const auto pooled = cachesim::simulate_sweep(cp, configs, &pool);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_same(pooled[i], serial[i], c.name + " pooled config " +
                                            std::to_string(i));
    }
    const auto many_serial = cachesim::simulate_many(cp, configs, nullptr);
    const auto many_pooled = cachesim::simulate_many(cp, configs, &pool);
    for (std::size_t i = 0; i < many_serial.size(); ++i) {
      expect_same(many_pooled[i], many_serial[i],
                  c.name + " pooled many " + std::to_string(i));
    }
  }
}

TEST(SweepTest, RejectsBadGeometry) {
  const auto cases = gallery_cases();
  const auto cp = compile(cases[0]);
  EXPECT_THROW(cachesim::simulate_sweep(
                   cp, {{0, 1, 0, cachesim::Replacement::kLru}}),
               Error);
  EXPECT_THROW(cachesim::simulate_sweep(
                   cp, {{64, 3, 0, cachesim::Replacement::kLru}}),
               Error);
  EXPECT_THROW(cachesim::simulate_sweep(
                   cp, {{66, 4, 0, cachesim::Replacement::kLru}}),
               Error);
  // The streamed engine, which `sdlo sweep --line` feeds, checks too.
  EXPECT_THROW(cachesim::simulate_sweep_streamed(
                   cp, {{48, 3, 0, cachesim::Replacement::kLru}}),
               Error);
}

// --- run-compressed trace mode -------------------------------------------

/// Builds one perfectly nested band over `loops` (var, extent) holding the
/// given statements, with extents bound through symbolic bounds so the
/// walker sees the same shape the gallery programs do.
trace::CompiledProgram one_band_program(
    const std::vector<std::pair<std::string, std::int64_t>>& loops,
    const std::vector<std::vector<ir::ArrayRef>>& stmts) {
  ir::Program prog;
  std::vector<ir::Loop> band;
  sym::Env env;
  for (const auto& [var, extent] : loops) {
    const std::string bound = "N" + var;
    band.push_back(ir::Loop{var, sym::Expr::symbol(bound)});
    env[bound] = extent;
  }
  const auto node = prog.add_band(ir::Program::kRoot, band);
  int label = 0;
  for (const auto& refs : stmts) {
    prog.add_statement(node,
                       ir::Statement{"S" + std::to_string(label++), refs});
  }
  prog.validate();
  return trace::CompiledProgram(prog, env);
}

ir::ArrayRef make_ref(std::string array, std::vector<std::string> vars,
                      ir::AccessMode mode) {
  ir::ArrayRef r;
  r.array = std::move(array);
  for (auto& v : vars) r.subscripts.push_back(ir::Subscript{{v}});
  r.mode = mode;
  return r;
}

/// Both trace modes through both engines and the profiler must agree with
/// each other and with the per-configuration reference simulators.
void expect_modes_match_reference(const trace::CompiledProgram& cp,
                                  const std::string& name) {
  const std::vector<cachesim::SweepConfig> configs{
      {1, 1, 0, cachesim::Replacement::kLru},
      {3, 1, 0, cachesim::Replacement::kLru},
      {16, 1, 0, cachesim::Replacement::kLru},
      {64, 4, 0, cachesim::Replacement::kLru},
      {1024, 1, 0, cachesim::Replacement::kLru},
      {64, 1, 4, cachesim::Replacement::kLru},
  };
  const auto runs =
      cachesim::simulate_sweep(cp, configs, nullptr, trace::TraceMode::kRuns);
  const auto batched = cachesim::simulate_sweep(cp, configs, nullptr,
                                                trace::TraceMode::kBatched);
  const auto many_runs =
      cachesim::simulate_many(cp, configs, nullptr, trace::TraceMode::kRuns);
  ASSERT_EQ(runs.size(), configs.size());
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& cfg = configs[i];
    const auto want =
        cfg.ways > 0
            ? cachesim::simulate_set_assoc(cp, cfg.capacity_elems, cfg.ways,
                                           cfg.line_elems)
            : cachesim::simulate_lru_lines(cp, cfg.capacity_elems,
                                           cfg.line_elems);
    const std::string what = name + " config " + std::to_string(i);
    expect_same(runs[i], want, what + " (runs)");
    expect_same(batched[i], want, what + " (batched)");
    expect_same(many_runs[i], want, what + " (many runs)");
  }
  // The profiler's restricted bulk set must reproduce the per-access
  // profile exactly, histogram for histogram.
  for (std::int64_t line : {1, 4}) {
    const auto pr = cachesim::profile_stack_distances(
        cp, line, trace::TraceMode::kRuns);
    const auto pb = cachesim::profile_stack_distances(
        cp, line, trace::TraceMode::kBatched);
    const std::string what = name + " profile line=" + std::to_string(line);
    EXPECT_EQ(pr.accesses, pb.accesses) << what;
    EXPECT_EQ(pr.cold, pb.cold) << what;
    EXPECT_EQ(pr.histogram, pb.histogram) << what;
    EXPECT_EQ(pr.cold_by_site, pb.cold_by_site) << what;
    EXPECT_EQ(pr.histogram_by_site, pb.histogram_by_site) << what;
  }
}

TEST(SweepTest, RunModeMatchesBatchedModeOnGalleryPrograms) {
  for (const auto& c : gallery_cases()) {
    expect_modes_match_reference(compile(c), c.name);
  }
}

TEST(SweepTest, RunModeBulkFastPathsMatchReference) {
  // Each program is shaped to funnel the run engines into one specific bulk
  // fast path; the differential check proves the path exact.

  // All-pinned group: no ref moves with the innermost loop, so after
  // iteration 1 the whole group is in steady state (count 40 >= the bulk
  // threshold).
  expect_modes_match_reference(
      one_band_program({{"i", 6}, {"k", 40}},
                       {{make_ref("A", {"i"}, ir::AccessMode::kRead),
                         make_ref("B", {"i"}, ir::AccessMode::kRead),
                         make_ref("C", {"i"}, ir::AccessMode::kRead),
                         make_ref("C", {"i"}, ir::AccessMode::kWrite)}}),
      "pinned group");

  // Single stride-1 run: with line_elems > 1 consecutive elements collapse
  // onto one line, exercising the sub-line span-collapse arithmetic.
  expect_modes_match_reference(
      one_band_program({{"i", 5}, {"k", 64}},
                       {{make_ref("W", {"k"}, ir::AccessMode::kWrite)}}),
      "sub-line single run");

  // Disjoint group: one pinned ref, one moving ref with a duplicate, and a
  // moving write into a distinct array — pairwise-disjoint line ranges.
  expect_modes_match_reference(
      one_band_program({{"i", 6}, {"k", 40}},
                       {{make_ref("P", {"i"}, ir::AccessMode::kRead),
                         make_ref("A", {"k"}, ir::AccessMode::kRead),
                         make_ref("A", {"k"}, ir::AccessMode::kRead),
                         make_ref("Z", {"k"}, ir::AccessMode::kWrite)}}),
      "disjoint group");

  // Overlapping moving refs across two statements defeat the disjointness
  // guard, forcing the exact per-element mixed fallback.
  expect_modes_match_reference(
      one_band_program({{"i", 4}, {"k", 40}},
                       {{make_ref("A", {"k"}, ir::AccessMode::kRead),
                         make_ref("B", {"k"}, ir::AccessMode::kWrite)},
                        {make_ref("B", {"k"}, ir::AccessMode::kRead),
                         make_ref("A", {"k"}, ir::AccessMode::kWrite)}}),
      "mixed fallback");

  // Two-dimensional moving subscript M[k][i]: the innermost loop walks the
  // slow axis, so every iteration lands on a fresh line even at
  // line_elems 4.
  expect_modes_match_reference(
      one_band_program({{"i", 5}, {"k", 12}},
                       {{make_ref("M", {"k", "i"}, ir::AccessMode::kRead),
                         make_ref("V", {"i"}, ir::AccessMode::kWrite)}}),
      "wide-stride group");
}

// --- resource-governed runs ----------------------------------------------

TEST(SweepTest, DeterministicCancelTruncatesToExactPrefix) {
  // cancel_after(n) trips the governor on an exact poll count, so the
  // truncated result covers a deterministic prefix of the access stream.
  // That prefix must be bit-exact: replaying the first `accesses` accesses
  // through the reference LruCache must reproduce the truncated counts.
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    std::vector<trace::Access> stream;
    cp.walk([&](const trace::Access& a) { stream.push_back(a); });

    const std::vector<cachesim::SweepConfig> configs{
        {3, 1, 0, cachesim::Replacement::kLru},
        {64, 1, 0, cachesim::Replacement::kLru},
    };
    const auto full = cachesim::simulate_sweep(cp, configs);
    const auto check_prefix = [&](trace::TraceMode mode) {
      Governor gov;
      gov.poll_interval = 1;  // poll at every run group / batch
      gov.cancel.cancel_after(4);
      const auto part =
          cachesim::simulate_sweep(cp, configs, nullptr, mode, &gov);
      ASSERT_EQ(part.size(), configs.size());
      for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(part[i].completeness, Completeness::kTruncated)
            << c.name << " config " << i;
        EXPECT_LT(part[i].accesses, full[i].accesses) << c.name;
        EXPECT_LE(part[i].misses, full[i].misses) << c.name;

        cachesim::LruCache ref(configs[i].capacity_elems);
        for (std::uint64_t a = 0; a < part[i].accesses; ++a) {
          ref.access(stream[static_cast<std::size_t>(a)].addr);
        }
        EXPECT_EQ(part[i].misses, ref.misses())
            << c.name << " config " << i << " prefix replay";
      }
    };
    check_prefix(trace::TraceMode::kRuns);
    // Batched mode polls once per ~kTraceBatch accesses, so only traces
    // longer than the poll budget can truncate there.
    if (stream.size() > 4 * trace::kTraceBatch) {
      check_prefix(trace::TraceMode::kBatched);
    }
  }
}

TEST(SweepTest, ExpiredDeadlineTruncatesSweepAndProfiler) {
  const auto cases = gallery_cases();
  const auto cp = compile(cases[1]);  // matmul_tiled
  Governor gov;
  gov.deadline = Deadline::after_seconds(0);
  gov.poll_interval = 1;
  const auto swept = cachesim::simulate_sweep(
      cp, {{64, 1, 0, cachesim::Replacement::kLru}}, nullptr,
      trace::TraceMode::kRuns, &gov);
  EXPECT_EQ(swept[0].completeness, Completeness::kTruncated);

  const auto prof = cachesim::profile_stack_distances(
      cp, 1, trace::TraceMode::kRuns, &gov);
  EXPECT_EQ(prof.completeness, Completeness::kTruncated);
  const auto full = cachesim::profile_stack_distances(cp, 1);
  EXPECT_EQ(full.completeness, Completeness::kComplete);
  EXPECT_LT(prof.accesses, full.accesses);
}

TEST(SweepTest, ZeroMemoryBudgetDegradesBitIdentically) {
  // A zero budget denies every dense-table reservation; the engines must
  // fall back to their hashed implementations with identical results and
  // no truncation (a memory downgrade is not a partial answer).
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    const std::vector<cachesim::SweepConfig> configs{
        {3, 1, 0, cachesim::Replacement::kLru},
        {64, 1, 0, cachesim::Replacement::kLru},
        {256, 4, 0, cachesim::Replacement::kLru},
    };
    const auto dense = cachesim::simulate_sweep(cp, configs);
    MemoryBudget zero(0);
    Governor gov;
    gov.memory = &zero;
    const auto hashed = cachesim::simulate_sweep(
        cp, configs, nullptr, trace::TraceMode::kRuns, &gov);
    ASSERT_EQ(hashed.size(), dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) {
      expect_same(hashed[i], dense[i], c.name + " budgeted sweep");
      EXPECT_EQ(hashed[i].completeness, Completeness::kComplete) << c.name;
    }
    const auto many_hashed = cachesim::simulate_many(
        cp, configs, nullptr, trace::TraceMode::kRuns, &gov);
    const auto many_dense = cachesim::simulate_many(cp, configs);
    for (std::size_t i = 0; i < many_dense.size(); ++i) {
      expect_same(many_hashed[i], many_dense[i], c.name + " budgeted many");
    }
    EXPECT_EQ(zero.used(), 0u);  // every denial released nothing

    const auto prof_dense = cachesim::profile_stack_distances(cp, 1);
    const auto prof_hashed = cachesim::profile_stack_distances(
        cp, 1, trace::TraceMode::kRuns, &gov);
    EXPECT_EQ(prof_hashed.accesses, prof_dense.accesses) << c.name;
    EXPECT_EQ(prof_hashed.cold, prof_dense.cold) << c.name;
    EXPECT_EQ(prof_hashed.histogram, prof_dense.histogram) << c.name;
  }
}

TEST(SweepTest, DenseAllocFailpointDegradesBitIdentically) {
  // SDLO_FAILPOINTS=sweep-dense-alloc=fail (here armed programmatically)
  // must behave exactly like a denied memory reservation.
  const auto cases = gallery_cases();
  const auto cp = compile(cases[3]);  // two_index_tiled
  const std::vector<cachesim::SweepConfig> configs{
      {16, 1, 0, cachesim::Replacement::kLru},
      {1024, 1, 0, cachesim::Replacement::kLru},
  };
  const auto dense = cachesim::simulate_sweep(cp, configs);
  {
    failpoints::ScopedFailpoint fp(failpoints::kSweepDenseAlloc,
                                   {failpoints::Action::kFailAlloc, 0});
    const auto hashed = cachesim::simulate_sweep(cp, configs);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      expect_same(hashed[i], dense[i], "failpoint sweep");
      EXPECT_EQ(hashed[i].completeness, Completeness::kComplete);
    }
  }
  const auto prof_want = cachesim::profile_stack_distances(cp, 1);
  {
    failpoints::ScopedFailpoint fp(failpoints::kProfilerDenseAlloc,
                                   {failpoints::Action::kFailAlloc, 0});
    const auto prof = cachesim::profile_stack_distances(cp, 1);
    EXPECT_EQ(prof.histogram, prof_want.histogram);
    EXPECT_EQ(prof.cold, prof_want.cold);
  }
}

TEST(SweepTest, GovernedPooledSweepTruncatesCleanly) {
  // Cancellation mid-sweep with a thread pool: every per-chunk unit stops
  // at a safe boundary and the call returns (no hang, no crash), with each
  // result either complete or a valid truncated prefix.
  parallel::ThreadPool pool(4);
  const auto cases = gallery_cases();
  const auto cp = compile(cases[1]);
  std::vector<cachesim::SweepConfig> configs;
  for (std::int64_t cap : {4, 16, 64, 256, 1024, 4096}) {
    configs.push_back({cap, 1, 0, cachesim::Replacement::kLru});
  }
  const auto full = cachesim::simulate_sweep(cp, configs);
  Governor gov;
  gov.poll_interval = 1;
  gov.cancel.cancel_after(3);
  const auto part = cachesim::simulate_sweep(cp, configs, &pool,
                                             trace::TraceMode::kRuns, &gov);
  ASSERT_EQ(part.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_LE(part[i].accesses, full[i].accesses);
    EXPECT_LE(part[i].misses, full[i].misses);
    if (part[i].completeness == Completeness::kComplete) {
      EXPECT_EQ(part[i].misses, full[i].misses);
    }
  }
}

TEST(SweepTest, BatchedWalkMatchesPerAccessWalk) {
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    std::vector<trace::Access> one_by_one;
    cp.walk([&](const trace::Access& a) { one_by_one.push_back(a); });
    for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                              trace::kTraceBatch}) {
      std::vector<trace::Access> batched;
      cp.walk_batched(
          [&](const trace::Access* a, std::size_t n) {
            batched.insert(batched.end(), a, a + n);
          },
          batch);
      ASSERT_EQ(batched.size(), one_by_one.size())
          << c.name << " batch=" << batch;
      for (std::size_t i = 0; i < batched.size(); ++i) {
        ASSERT_EQ(batched[i].addr, one_by_one[i].addr)
            << c.name << " batch=" << batch << " i=" << i;
        ASSERT_EQ(batched[i].site, one_by_one[i].site)
            << c.name << " batch=" << batch << " i=" << i;
        ASSERT_EQ(static_cast<int>(batched[i].mode),
                  static_cast<int>(one_by_one[i].mode))
            << c.name << " batch=" << batch << " i=" << i;
      }
    }
  }
}

}  // namespace
