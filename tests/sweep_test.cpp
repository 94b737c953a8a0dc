// Differential tests for the sweep engine: simulate_sweep_streamed must be
// bit-identical to the per-configuration simulators on every gallery
// program, for every capacity and line size tried — including the
// per-site miss breakdown — and the run-fed profiler to the
// per-access reference profile. Also covers pool-vs-serial equivalence,
// governed truncation and a denied memory budget's truncated empty prefix.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cachesim/lru_cache.hpp"
#include "cachesim/parallel_stack.hpp"
#include "cachesim/sim.hpp"
#include "fuzz/oracles.hpp"
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
    for (std::int64_t cap : caps) configs.push_back({cap, 1});
    const auto swept = cachesim::simulate_sweep_streamed(cp, configs);
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
        configs.push_back({line * mult, line});
      }
    }
    const auto swept = cachesim::simulate_sweep_streamed(cp, configs);
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
      {64, 1},
      {256, 4},
      {64, 1},  // duplicate of [0]
      {1024, 1},
  };
  const auto swept = cachesim::simulate_sweep_streamed(cp, configs);
  ASSERT_EQ(swept.size(), configs.size());
  expect_same(swept[0], cachesim::simulate_lru(cp, 64), "cap=64");
  expect_same(swept[1], cachesim::simulate_lru_lines(cp, 256, 4),
              "cap=256 line=4");
  expect_same(swept[2], swept[0], "duplicate config");
  expect_same(swept[3], cachesim::simulate_lru(cp, 1024), "cap=1024");
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
    for (std::int64_t cap : {16, 256, 4096}) configs.push_back({cap, 1});
    const auto serial = cachesim::simulate_sweep_streamed(cp, configs);
    const auto pooled =
        cachesim::simulate_sweep_streamed(cp, configs, &pool);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_same(pooled[i], serial[i], c.name + " pooled config " +
                                            std::to_string(i));
    }
  }
}

TEST(SweepTest, RejectsBadGeometry) {
  const auto cases = gallery_cases();
  const auto cp = compile(cases[0]);
  EXPECT_THROW(cachesim::simulate_sweep_streamed(cp, {{0, 1}}), Error);
  EXPECT_THROW(cachesim::simulate_sweep_streamed(cp, {{64, 3}}), Error);
  EXPECT_THROW(cachesim::simulate_sweep_streamed(cp, {{66, 4}}), Error);
  // The engine is fully associative: naming an associativity is an error,
  // never a different geometry.
  for (const int ways : {1, 4, 64}) {
    EXPECT_THROW(
        cachesim::simulate_sweep_streamed(cp, {{64, 1}, {64, 1, ways}}),
        ContractViolation)
        << "ways=" << ways;
  }
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

/// The run-fed sweep engine — at one chunk and across chunk boundaries —
/// must agree with the per-access references, and the profiler with the
/// LruCache simulator.
void expect_runs_match_reference(const trace::CompiledProgram& cp,
                                 const std::string& name) {
  const std::vector<cachesim::SweepConfig> configs{
      {1, 1}, {3, 1}, {16, 1}, {64, 4}, {1024, 1}};
  const auto want = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool pool(2);
  for (int chunks : {1, 3}) {
    cachesim::StreamOptions sopt;
    sopt.partition.chunks = chunks;
    const auto got =
        cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt);
    ASSERT_EQ(got.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_same(got[i], want[i],
                  name + " config " + std::to_string(i) +
                      " chunks=" + std::to_string(chunks));
    }
  }
  // The Fenwick profiler must agree with the LruCache simulator, so each
  // shape cross-checks the two per-access references.
  for (std::int64_t line : {1, 4}) {
    const auto prof = cachesim::profile_stack_distances(cp, line);
    for (std::int64_t cap : {line, 3 * line, 16 * line, 1024 * line}) {
      expect_same(prof.result(cap),
                  cachesim::simulate_lru_lines(cp, cap, line),
                  name + " profile cap=" + std::to_string(cap) +
                      " line=" + std::to_string(line));
    }
  }
}

TEST(SweepTest, RunEnginesMatchPerAccessReferenceOnGalleryPrograms) {
  for (const auto& c : gallery_cases()) {
    expect_runs_match_reference(compile(c), c.name);
  }
}

TEST(SweepTest, RunModeBulkFastPathsMatchReference) {
  // Each program is shaped to funnel the run engines into one specific bulk
  // fast path; the differential check proves the path exact.

  // All-pinned group: no ref moves with the innermost loop, so after
  // iteration 1 the whole group is in steady state (count 40 >= the bulk
  // threshold).
  expect_runs_match_reference(
      one_band_program({{"i", 6}, {"k", 40}},
                       {{make_ref("A", {"i"}, ir::AccessMode::kRead),
                         make_ref("B", {"i"}, ir::AccessMode::kRead),
                         make_ref("C", {"i"}, ir::AccessMode::kRead),
                         make_ref("C", {"i"}, ir::AccessMode::kWrite)}}),
      "pinned group");

  // Single stride-1 run: with line_elems > 1 consecutive elements collapse
  // onto one line, exercising the sub-line span-collapse arithmetic.
  expect_runs_match_reference(
      one_band_program({{"i", 5}, {"k", 64}},
                       {{make_ref("W", {"k"}, ir::AccessMode::kWrite)}}),
      "sub-line single run");

  // Disjoint group: one pinned ref, one moving ref with a duplicate, and a
  // moving write into a distinct array — pairwise-disjoint line ranges.
  expect_runs_match_reference(
      one_band_program({{"i", 6}, {"k", 40}},
                       {{make_ref("P", {"i"}, ir::AccessMode::kRead),
                         make_ref("A", {"k"}, ir::AccessMode::kRead),
                         make_ref("A", {"k"}, ir::AccessMode::kRead),
                         make_ref("Z", {"k"}, ir::AccessMode::kWrite)}}),
      "disjoint group");

  // Overlapping moving refs across two statements defeat the disjointness
  // guard, forcing the exact per-element mixed fallback.
  expect_runs_match_reference(
      one_band_program({{"i", 4}, {"k", 40}},
                       {{make_ref("A", {"k"}, ir::AccessMode::kRead),
                         make_ref("B", {"k"}, ir::AccessMode::kWrite)},
                        {make_ref("B", {"k"}, ir::AccessMode::kRead),
                         make_ref("A", {"k"}, ir::AccessMode::kWrite)}}),
      "mixed fallback");

  // Two-dimensional moving subscript M[k][i]: the innermost loop walks the
  // slow axis, so every iteration lands on a fresh line even at
  // line_elems 4.
  expect_runs_match_reference(
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

    const std::vector<cachesim::SweepConfig> configs{{3, 1}, {64, 1}};
    const auto full = cachesim::simulate_sweep_streamed(cp, configs);
    Governor gov;
    gov.poll_interval = 1;  // poll at every run group
    gov.cancel.cancel_after(4);
    const auto part =
        cachesim::simulate_sweep_streamed(cp, configs, nullptr, {}, &gov);
    ASSERT_EQ(part.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_EQ(part[i].completeness, Completeness::kTruncated)
          << c.name << " config " << i;
      EXPECT_LT(part[i].accesses, full[i].accesses) << c.name;
      EXPECT_LE(part[i].misses, full[i].misses) << c.name;

      cachesim::LruCache ref(configs[i].capacity_elems,
                             cp.address_space_size());
      for (std::uint64_t a = 0; a < part[i].accesses; ++a) {
        ref.access(stream[static_cast<std::size_t>(a)].addr);
      }
      EXPECT_EQ(part[i].misses, ref.misses())
          << c.name << " config " << i << " prefix replay";
    }
  }
}

TEST(SweepTest, ExpiredDeadlineTruncatesSweep) {
  const auto cases = gallery_cases();
  const auto cp = compile(cases[1]);  // matmul_tiled
  Governor gov;
  gov.deadline = Deadline::after_seconds(0);
  gov.poll_interval = 1;
  const auto swept =
      cachesim::simulate_sweep_streamed(cp, {{64, 1}}, nullptr, {}, &gov);
  EXPECT_EQ(swept[0].completeness, Completeness::kTruncated);
  EXPECT_LT(swept[0].accesses, cp.total_accesses());
}

/// The truncated empty prefix a denied sweep must return: every row 0
/// accesses, 0 misses and an all-zero per-site breakdown.
void expect_empty_prefix(const std::vector<cachesim::SimResult>& got,
                         const trace::CompiledProgram& cp,
                         const std::string& what) {
  for (const cachesim::SimResult& r : got) {
    EXPECT_EQ(r.accesses, 0u) << what;
    EXPECT_EQ(r.misses, 0u) << what;
    EXPECT_EQ(r.misses_by_site,
              std::vector<std::uint64_t>(
                  static_cast<std::size_t>(cp.num_sites()), 0))
        << what;
    EXPECT_EQ(r.completeness, Completeness::kTruncated) << what;
  }
}

TEST(SweepTest, ZeroMemoryBudgetTruncatesToTheEmptyPrefix) {
  // A zero budget denies every dense-table reservation. The budget is
  // never exceeded, so the engine walks nothing and returns the exact
  // empty prefix, marked truncated, with nothing left charged.
  for (const auto& c : gallery_cases()) {
    const auto cp = compile(c);
    const std::vector<cachesim::SweepConfig> configs{
        {3, 1}, {64, 1}, {256, 4}};
    MemoryBudget zero(0);
    Governor gov;
    gov.memory = &zero;
    cachesim::PartitionStats stats;
    cachesim::StreamOptions sopt;
    sopt.partition.stats = &stats;
    const auto denied =
        cachesim::simulate_sweep_streamed(cp, configs, nullptr, sopt, &gov);
    ASSERT_EQ(denied.size(), configs.size());
    expect_empty_prefix(denied, cp, c.name + " budgeted sweep");
    EXPECT_EQ(stats.chunks, 0u) << c.name << ": the dense path ran";
    EXPECT_EQ(zero.used(), 0u);  // every denial released nothing
  }
}

TEST(SweepTest, DenseAllocFailpointTruncatesToTheEmptyPrefix) {
  // SDLO_FAILPOINTS=sweep-dense-alloc=fail (here armed programmatically)
  // must behave exactly like a denied memory reservation.
  const auto cases = gallery_cases();
  const auto cp = compile(cases[3]);  // two_index_tiled
  const std::vector<cachesim::SweepConfig> configs{{16, 1}, {1024, 1}};
  failpoints::ScopedFailpoint fp(failpoints::kSweepDenseAlloc,
                                 {failpoints::Action::kFailAlloc, 0});
  cachesim::PartitionStats stats;
  cachesim::StreamOptions sopt;
  sopt.partition.stats = &stats;
  const auto denied =
      cachesim::simulate_sweep_streamed(cp, configs, nullptr, sopt);
  ASSERT_EQ(denied.size(), configs.size());
  expect_empty_prefix(denied, cp, "failpoint sweep");
  EXPECT_EQ(stats.chunks, 0u) << "the dense path ran";
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
    configs.push_back({cap, 1});
  }
  const auto full = cachesim::simulate_sweep_streamed(cp, configs);
  Governor gov;
  gov.poll_interval = 1;
  gov.cancel.cancel_after(3);
  const auto part =
      cachesim::simulate_sweep_streamed(cp, configs, &pool, {}, &gov);
  ASSERT_EQ(part.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_LE(part[i].accesses, full[i].accesses);
    EXPECT_LE(part[i].misses, full[i].misses);
    if (part[i].completeness == Completeness::kComplete) {
      EXPECT_EQ(part[i].misses, full[i].misses);
    }
  }
}

}  // namespace
