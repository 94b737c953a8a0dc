// Differential tests for the time partitioning of the streamed sweep:
// simulate_sweep_streamed must be bit-identical to the per-configuration
// reference simulators — including misses_by_site — for every chunking of
// the trace, because the hole-merge pass resolves cross-chunk reuses
// exactly. Also covers the hole-merge edge cases (reuse windows spanning
// several chunk boundaries, single-group chunks, all-cold chunks),
// deterministic max_groups truncation, governed cancellation mid-sweep
// (run under TSan in CI), and the memory-budget degradation to the serial
// hashed-table walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/parallel_stack.hpp"
#include "cachesim/sweep.hpp"
#include "fuzz/oracles.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "parallel/thread_pool.hpp"
#include "support/failpoints.hpp"
#include "support/governor.hpp"
#include "trace/walker.hpp"

namespace {

using namespace sdlo;
using cachesim::PartitionOptions;
using cachesim::SimResult;
using cachesim::SweepConfig;

void expect_same(const std::vector<SimResult>& got,
                 const std::vector<SimResult>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].accesses, want[i].accesses) << what << " cfg=" << i;
    EXPECT_EQ(got[i].misses, want[i].misses) << what << " cfg=" << i;
    EXPECT_EQ(got[i].misses_by_site, want[i].misses_by_site)
        << what << " cfg=" << i;
    EXPECT_EQ(got[i].completeness, want[i].completeness)
        << what << " cfg=" << i;
  }
}

/// The streamed sweep under the given chunking.
std::vector<SimResult> streamed(const trace::CompiledProgram& cp,
                                const std::vector<SweepConfig>& configs,
                                parallel::ThreadPool* pool = nullptr,
                                const PartitionOptions& opt = {},
                                const Governor* gov = nullptr) {
  cachesim::StreamOptions sopt;
  sopt.partition = opt;
  return cachesim::simulate_sweep_streamed(cp, configs, pool, sopt, gov);
}

std::vector<SweepConfig> standard_configs() {
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 3, 16, 64, 250, 1024}) {
    configs.push_back({cap, 1, 0, cachesim::Replacement::kLru});
  }
  for (std::int64_t line : {4, 8}) {
    configs.push_back({16 * line, line, 0, cachesim::Replacement::kLru});
    configs.push_back({64 * line, line, 0, cachesim::Replacement::kLru});
  }
  configs.push_back({64, 4, 4, cachesim::Replacement::kLru});  // set-assoc
  return configs;
}

TEST(ParallelSweep, MatchesSequentialOnEveryGalleryProgram) {
  struct Case {
    std::string name;
    ir::GalleryProgram g;
    std::vector<std::int64_t> bounds;
    std::vector<std::int64_t> tiles;
  };
  std::vector<Case> cases;
  cases.push_back({"matmul", ir::matmul(), {12, 12, 12}, {}});
  cases.push_back(
      {"matmul_tiled", ir::matmul_tiled(), {16, 16, 16}, {4, 8, 4}});
  cases.push_back(
      {"two_index_fused", ir::two_index_fused(), {8, 8, 8, 8}, {}});
  cases.push_back({"two_index_tiled", ir::two_index_tiled(),
                   {16, 16, 16, 16}, {4, 8, 8, 4}});
  cases.push_back(
      {"two_index_unfused", ir::two_index_unfused(), {8, 8, 8, 8}, {}});

  const auto configs = standard_configs();
  for (const auto& c : cases) {
    const trace::CompiledProgram cp(c.g.prog,
                                    c.g.make_env(c.bounds, c.tiles));
    const auto want = fuzz::reference_sweep(cp, configs);
    for (int chunks : {2, 3, 4, 13}) {
      PartitionOptions opt;
      opt.chunks = chunks;
      const auto got = streamed(
          cp, configs, nullptr, opt);
      expect_same(got, want,
                  c.name + " chunks=" + std::to_string(chunks));
    }
  }
}

TEST(ParallelSweep, PoolMatchesSerialPartitioning) {
  const auto g = ir::matmul_tiled();
  const trace::CompiledProgram cp(g.prog,
                                  g.make_env({16, 16, 16}, {4, 8, 4}));
  const auto configs = standard_configs();
  const auto want = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool pool(3);
  PartitionOptions opt;
  opt.chunks = 5;
  const auto got =
      streamed(cp, configs, &pool, opt);
  expect_same(got, want, "pooled chunks=5");
  // threads from the pool when no explicit chunk count is given.
  const auto got2 =
      streamed(cp, configs, &pool);
  expect_same(got2, want, "pooled default-chunking");
}

TEST(ParallelSweep, SingleGroupChunks) {
  // A chunk count above the group count is clamped to one run group per
  // chunk (the floor): every chunk's accesses are all holes or all
  // intra-group reuses, and the merge reconstructs the global stack alone.
  const ir::Program p = ir::parse_program(R"(
    for i<7> { S1: A[i] += B[i] }
    for i<7> { S2: C[i] += A[i] }
  )");
  const trace::CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 4, 8, 32})
    configs.push_back({cap, 1, 0, cachesim::Replacement::kLru});
  const auto want = fuzz::reference_sweep(cp, configs);
  PartitionOptions opt;
  opt.chunks = 1 << 20;
  const auto got =
      streamed(cp, configs, nullptr, opt);
  expect_same(got, want, "one-group chunks");
}

TEST(ParallelSweep, ReuseSpansMultipleChunkBoundaries) {
  // A[0] is touched once per outer iteration with a 64-element stream in
  // between; with many chunks each A[0]-to-A[0] reuse window crosses
  // several chunk boundaries, so its hole resolves against merge state
  // built from more than one earlier chunk.
  const ir::Program p = ir::parse_program(R"(
    for r<4> { for z<1> { S1: A[z] += A[z] }  for i<64> { S2: B[i] += B[i] } }
  )");
  const trace::CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 32, 63, 64, 65, 66, 128})
    configs.push_back({cap, 1, 0, cachesim::Replacement::kLru});
  const auto want = fuzz::reference_sweep(cp, configs);
  for (int chunks : {2, 8, 16}) {
    PartitionOptions opt;
    opt.chunks = chunks;
    const auto got =
        streamed(cp, configs, nullptr, opt);
    expect_same(got, want, "spanning chunks=" + std::to_string(chunks));
  }
  // Sanity anchor: at capacity 66 the whole working set (A[0] + 64 B lines
  // + the stack) fits, so only the 65 distinct elements miss.
  ASSERT_EQ(want[6].misses, 65u);
}

TEST(ParallelSweep, AllHolesChunks) {
  // A pure stream never reuses across groups: every chunk is all holes and
  // the merge must classify each one cold.
  const ir::Program p = ir::parse_program(R"(
    for i<256> { S1: A[i] += A[i] }
  )");
  const trace::CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs{{1, 1, 0, cachesim::Replacement::kLru},
                                   {16, 1, 0, cachesim::Replacement::kLru},
                                   {512, 1, 0, cachesim::Replacement::kLru}};
  const auto want = fuzz::reference_sweep(cp, configs);
  for (int chunks : {2, 4, 32}) {
    PartitionOptions opt;
    opt.chunks = chunks;
    const auto got =
        streamed(cp, configs, nullptr, opt);
    expect_same(got, want, "all-holes chunks=" + std::to_string(chunks));
  }
  for (const auto& r : want) EXPECT_EQ(r.misses, 256u);  // all cold
}

TEST(ParallelSweep, MaxGroupsTruncationIsChunkCountInvariant) {
  const auto g = ir::matmul();
  const trace::CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  std::vector<SweepConfig> configs{{4, 1, 0, cachesim::Replacement::kLru},
                                   {64, 1, 0, cachesim::Replacement::kLru}};
  const std::uint64_t max_groups = cp.group_count() / 3;
  ASSERT_GT(max_groups, 4u);

  PartitionOptions one;
  one.chunks = 1;
  one.max_groups = max_groups;
  const auto want =
      streamed(cp, configs, nullptr, one);
  for (const auto& r : want) {
    EXPECT_EQ(r.completeness, Completeness::kTruncated);
    EXPECT_LT(r.accesses, cp.total_accesses());
    EXPECT_GT(r.accesses, 0u);
  }
  PartitionOptions four;
  four.chunks = 4;
  four.max_groups = max_groups;
  const auto got =
      streamed(cp, configs, nullptr, four);
  expect_same(got, want, "max_groups chunks=4 vs 1");
}

TEST(ParallelSweep, GovernedCancellationTruncatesExactPrefix) {
  const auto g = ir::matmul();
  const trace::CompiledProgram cp(g.prog, g.make_env({12, 12, 12}, {}));
  std::vector<SweepConfig> configs{{16, 1, 0, cachesim::Replacement::kLru}};
  const auto full = fuzz::reference_sweep(cp, configs);

  parallel::ThreadPool pool(2);
  Governor gov;
  gov.poll_interval = 1;
  gov.cancel.cancel_after(3);
  PartitionOptions opt;
  opt.chunks = 4;
  const auto got =
      streamed(cp, configs, &pool, opt, &gov);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].completeness, Completeness::kTruncated);
  // The truncated counts are an exact prefix simulation, hence bounded by
  // the full-trace counts.
  EXPECT_LT(got[0].accesses, full[0].accesses);
  EXPECT_LE(got[0].misses, full[0].misses);
}

TEST(ParallelSweep, MemoryDenialDegradesToSequentialEngine) {
  const auto g = ir::matmul();
  const trace::CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  const auto configs = standard_configs();
  const auto want = fuzz::reference_sweep(cp, configs);

  MemoryBudget none(0);
  Governor gov;
  gov.memory = &none;
  cachesim::PartitionStats stats;
  PartitionOptions opt;
  opt.chunks = 4;
  opt.stats = &stats;
  const auto got =
      streamed(cp, configs, nullptr, opt, &gov);
  expect_same(got, want, "budget-denied fallback");
  EXPECT_EQ(none.used(), 0u);

  // The failpoint skips the one-chunk retry: it must force the hashed
  // rung even with an unlimited budget.
  failpoints::ScopedFailpoint fp(
      failpoints::kSweepDenseAlloc,
      failpoints::Spec{failpoints::Action::kFailAlloc, 0});
  const auto injected =
      streamed(cp, configs, nullptr, opt);
  expect_same(injected, want, "failpoint-denied fallback");
  EXPECT_EQ(stats.chunks, 0u) << "a denied run profiled a dense chunk";
}

}  // namespace
