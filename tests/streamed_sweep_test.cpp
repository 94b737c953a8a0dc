// Tests for the streamed sweep engine, simulate_sweep_streamed. It must be
// bit-identical to the per-configuration reference simulators, including
// misses_by_site, on both of its plans: one chunk on the calling thread,
// and one pool task per chunk, each walking its own group range, for
// every chunking of the trace (the hole merge resolves cross-chunk reuses
// exactly). Also covered: the hole-merge edge cases (reuse windows
// spanning several chunk boundaries, single-group chunks, all-cold
// chunks); the tee spool it writes while sweeping, byte-identical to a
// standalone spool_program; the frontier merging chunks while later ones
// still profile; deterministic max_groups truncation and governed
// cancellation, each the bit-exact simulation of a contiguous trace
// prefix; and the memory-budget ladder (a denied pooled plan retries as
// one chunk, a denied chunk returns the truncated empty prefix).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cachesim/lru_cache.hpp"
#include "cachesim/marker_stack.hpp"
#include "cachesim/parallel_stack.hpp"
#include "cachesim/recency_index.hpp"
#include "cachesim/sim.hpp"
#include "cachesim/sweep.hpp"
#include "fuzz/oracles.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "parallel/thread_pool.hpp"
#include "support/failpoints.hpp"
#include "support/governor.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace {

using namespace sdlo;
using cachesim::PartitionOptions;
using cachesim::PartitionStats;
using cachesim::SimResult;
using cachesim::StreamOptions;
using cachesim::SweepConfig;
using trace::CompiledProgram;
using trace::Run;

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
std::vector<SimResult> streamed(const CompiledProgram& cp,
                                const std::vector<SweepConfig>& configs,
                                parallel::ThreadPool* pool,
                                const PartitionOptions& opt = {},
                                const Governor* gov = nullptr) {
  StreamOptions sopt;
  sopt.partition = opt;
  return cachesim::simulate_sweep_streamed(cp, configs, pool, sopt, gov);
}

PartitionOptions chunked(int chunks) {
  PartitionOptions opt;
  opt.chunks = chunks;
  return opt;
}

std::vector<SweepConfig> standard_configs() {
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 3, 16, 64, 250, 1024}) {
    configs.push_back({cap, 1});
  }
  for (std::int64_t line : {4, 8}) {
    configs.push_back({16 * line, line});
    configs.push_back({64 * line, line});
  }
  return configs;
}

/// Every row of a denied sweep: the truncated empty prefix.
void expect_empty_prefix(const std::vector<SimResult>& got,
                         const CompiledProgram& cp,
                         const std::vector<SweepConfig>& configs,
                         const std::string& what) {
  ASSERT_EQ(got.size(), configs.size()) << what;
  for (const SimResult& r : got) {
    EXPECT_EQ(r.accesses, 0u) << what;
    EXPECT_EQ(r.misses, 0u) << what;
    EXPECT_EQ(r.misses_by_site,
              std::vector<std::uint64_t>(
                  static_cast<std::size_t>(cp.num_sites()), 0))
        << what;
    EXPECT_EQ(r.completeness, Completeness::kTruncated) << what;
  }
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Cumulative access counts per group prefix: prefix[g] = accesses in the
/// first g groups. Lets a test translate a truncated result's access count
/// back into the exact group prefix it simulated.
std::vector<std::uint64_t> access_prefix(const CompiledProgram& cp) {
  std::vector<std::uint64_t> prefix{0};
  cp.walk_runs([&](const Run* g, std::size_t nrefs) {
    prefix.push_back(prefix.back() + g[0].count * nrefs);
  });
  return prefix;
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
  parallel::ThreadPool pool(2);
  for (const auto& c : cases) {
    const CompiledProgram cp(c.g.prog, c.g.make_env(c.bounds, c.tiles));
    const auto want = fuzz::reference_sweep(cp, configs);
    for (int chunks : {2, 3, 4, 13}) {
      const std::string what = c.name + " chunks=" + std::to_string(chunks);
      PartitionStats stats;
      PartitionOptions opt = chunked(chunks);
      opt.stats = &stats;
      expect_same(streamed(cp, configs, &pool, opt), want, what);
      EXPECT_EQ(stats.chunks,
                std::min(static_cast<std::uint64_t>(chunks),
                         cp.group_count()))
          << what;
      EXPECT_EQ(stats.merged_chunks, stats.chunks) << what;
      EXPECT_EQ(stats.spool_write_seconds, 0.0) << "no tee configured";
    }
  }
}

TEST(StreamedSweep, FusedMatchesSequentialAcrossChunkLadder) {
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  const auto configs = standard_configs();
  const auto want = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool pool(2);
  for (int chunks : {1, 2, 5, 17}) {
    PartitionStats stats;
    PartitionOptions opt = chunked(chunks);
    opt.stats = &stats;
    expect_same(streamed(cp, configs, &pool, opt), want,
                "chunks=" + std::to_string(chunks));
    // Every chunk that was profiled has been merged by the time the sweep
    // returns.
    EXPECT_EQ(stats.merged_chunks, stats.chunks) << "chunks=" << chunks;
    EXPECT_EQ(stats.spool_write_seconds, 0.0) << "no tee configured";
  }
}

TEST(ParallelSweep, PoolMatchesSerialPartitioning) {
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  const auto configs = standard_configs();
  const auto want = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool pool(3);
  expect_same(streamed(cp, configs, &pool, chunked(5)), want,
              "pooled chunks=5");
  // threads from the pool when no explicit chunk count is given.
  expect_same(streamed(cp, configs, &pool), want, "pooled default-chunking");
}

TEST(ParallelSweep, SingleGroupChunks) {
  // A chunk count above the group count is clamped to one run group per
  // chunk (the floor): every chunk's accesses are all holes or all
  // intra-group reuses, and the merge reconstructs the global stack alone.
  const ir::Program p = ir::parse_program(R"(
    for i<7> { S1: A[i] += B[i] }
    for i<7> { S2: C[i] += A[i] }
  )");
  const CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 4, 8, 32}) configs.push_back({cap, 1});
  parallel::ThreadPool pool(2);
  expect_same(streamed(cp, configs, &pool, chunked(1 << 20)),
              fuzz::reference_sweep(cp, configs), "one-group chunks");
}

TEST(ParallelSweep, ReuseSpansMultipleChunkBoundaries) {
  // A[0] is touched once per outer iteration with a 64-element stream in
  // between; with many chunks each A[0]-to-A[0] reuse window crosses
  // several chunk boundaries, so its hole resolves against merge state
  // built from more than one earlier chunk.
  const ir::Program p = ir::parse_program(R"(
    for r<4> { for z<1> { S1: A[z] += A[z] }  for i<64> { S2: B[i] += B[i] } }
  )");
  const CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 32, 63, 64, 65, 66, 128})
    configs.push_back({cap, 1});
  const auto want = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool pool(2);
  for (int chunks : {2, 8, 16}) {
    expect_same(streamed(cp, configs, &pool, chunked(chunks)), want,
                "spanning chunks=" + std::to_string(chunks));
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
  const CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs{{1, 1}, {16, 1}, {512, 1}};
  const auto want = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool pool(2);
  for (int chunks : {2, 4, 32}) {
    expect_same(streamed(cp, configs, &pool, chunked(chunks)), want,
                "all-holes chunks=" + std::to_string(chunks));
  }
  for (const auto& r : want) EXPECT_EQ(r.misses, 256u);  // all cold
}

TEST(StreamedSweep, PoollessRunIsOneChunk) {
  // Without a pool of at least two threads the engine runs one chunk,
  // whatever chunk count is asked for, with the same counts.
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  const auto configs = standard_configs();
  const auto want = fuzz::reference_sweep(cp, configs);
  parallel::ThreadPool one_thread(1);
  for (parallel::ThreadPool* pool :
       std::vector<parallel::ThreadPool*>{nullptr, &one_thread}) {
    PartitionStats stats;
    PartitionOptions opt = chunked(5);
    opt.stats = &stats;
    expect_same(streamed(cp, configs, pool, opt), want, "chunks=5");
    EXPECT_EQ(stats.chunks, 1u);
    EXPECT_EQ(stats.merged_chunks, 1u);
    EXPECT_EQ(stats.merge_seconds, 0.0);
  }
}

TEST(StreamedSweep, PooledChunkLadderMatchesOneChunk) {
  // Every chunk walks its own group range concurrently with the others;
  // more chunks than threads queue on the pool. Each run must equal the
  // one-chunk run and the per-configuration simulate_lru_lines reference,
  // per site, at line 1 and line 8. Besides the tiled two-index, the
  // inputs are column walks of 600 elements at stride 16: longer than the
  // engine's 512-line batch, a fresh line per element at line 8, alone
  // (the per-element single-run path) and beside a pinned read (the
  // one-moving-ref group path). Every multi-chunk run of the tiled matmul
  // appends more than 1024 timestamps to the hole merge, so its table
  // compacts mid-run while later holes still resolve at shallow depths.
  const auto g = ir::two_index_tiled();
  const auto mt = ir::matmul_tiled();
  std::vector<std::pair<std::string, CompiledProgram>> inputs;
  inputs.emplace_back("two-index",
                      CompiledProgram(g.prog, g.make_env({16, 16, 16, 16},
                                                         {4, 8, 8, 4})));
  inputs.emplace_back(
      "tiled matmul",
      CompiledProgram(mt.prog, mt.make_env({16, 16, 16}, {4, 8, 4})));
  const sym::Env columns{{"N", 16}, {"M", 600}};
  inputs.emplace_back(
      "column walk",
      CompiledProgram(
          ir::parse_program("for i<N>, j<M> {\n  S1: A[j,i] = 0\n}\n"),
          columns));
  inputs.emplace_back(
      "column walk beside a pinned read",
      CompiledProgram(
          ir::parse_program("for i<N>, j<M> {\n  S1: A[j,i] = B[i]\n}\n"),
          columns));
  std::vector<SweepConfig> configs;
  for (std::int64_t line : {1, 8}) {
    for (std::int64_t lines : {1, 2, 3, 16, 64, 250}) {
      configs.push_back({lines * line, line});
    }
  }
  for (const auto& [name, cp] : inputs) {
    std::vector<SimResult> reference;
    for (const SweepConfig& c : configs) {
      reference.push_back(
          cachesim::simulate_lru_lines(cp, c.capacity_elems, c.line_elems));
    }
    StreamOptions one;
    one.partition.chunks = 1;
    const auto one_chunk =
        cachesim::simulate_sweep_streamed(cp, configs, nullptr, one);
    expect_same(one_chunk, reference, name + " one chunk");
    for (const int threads : {2, 4}) {
      parallel::ThreadPool pool(threads);
      for (const int chunks : {2, 3, 4, 5, 7, 16}) {
        const std::string what = name + " threads=" +
                                 std::to_string(threads) +
                                 " chunks=" + std::to_string(chunks);
        PartitionStats stats;
        StreamOptions sopt;
        sopt.partition.chunks = chunks;
        sopt.partition.stats = &stats;
        const auto got =
            cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt);
        expect_same(got, one_chunk, what + " vs one chunk");
        expect_same(got, reference, what + " vs simulate_lru_lines");
        EXPECT_EQ(stats.chunks, static_cast<std::uint64_t>(chunks)) << what;
        EXPECT_EQ(stats.merged_chunks, stats.chunks) << what;
      }
    }
  }
}

TEST(StreamedSweep, TeeSpoolIsByteIdenticalToSpoolProgram) {
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  const auto configs = standard_configs();
  const auto want = fuzz::reference_sweep(cp, configs);

  const std::string ref_path = temp_path("sdlo_stream_ref.spl");
  trace::spool_program(ref_path, cp);
  const auto ref = file_bytes(ref_path);

  for (const bool pooled : {false, true}) {
    const std::string tee_path = temp_path(
        std::string("sdlo_stream_tee") + (pooled ? "_pooled" : "_inline") +
        ".spl");
    std::unique_ptr<parallel::ThreadPool> pool;
    if (pooled) pool = std::make_unique<parallel::ThreadPool>(2);
    {
      trace::SpoolWriter writer(tee_path);
      PartitionStats stats;
      StreamOptions sopt;
      sopt.partition.chunks = pooled ? 4 : 1;
      sopt.partition.stats = &stats;
      sopt.tee = &writer;
      const auto got = cachesim::simulate_sweep_streamed(
          cp, configs, pool.get(), sopt);
      expect_same(got, want, pooled ? "tee pooled" : "tee one chunk");
      ASSERT_EQ(writer.groups(), cp.group_count());
      ASSERT_EQ(writer.accesses(), cp.total_accesses());
      EXPECT_GT(stats.spool_write_seconds, 0.0);
      writer.finish(cp.num_sites(), cp.address_space_size());
    }
    EXPECT_EQ(file_bytes(tee_path), ref) << "pooled=" << pooled;
    std::remove(tee_path.c_str());
  }
  std::remove(ref_path.c_str());
}

TEST(StreamedSweep, FrontierMergesWhileLaterChunksProfile) {
  // A[0] reuses once per r-block with a long B-stream in between: with 16
  // chunks each r-block spans ~4 of them, so the holes merged at chunks 4,
  // 8 and 12 resolve across 3+ chunk boundaries. The trace is big enough
  // (~4.2M accesses in 64K short groups) that the frontier has real time
  // to fold early chunks while workers are still profiling late ones; the
  // observer proves it happened. Scheduling can in principle finish every
  // chunk before the first merge, so the overlap check retries.
  const ir::Program p = ir::parse_program(R"(
    for r<4> {
      for z<1> { S1: A[z] += A[z] }
      for k<16384> { for j<64> { S2: B[j] += B[j] } }
    }
  )");
  const CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 32, 64, 66, 128})
    configs.push_back({cap, 1});
  const auto want = fuzz::reference_sweep(cp, configs);

  bool overlapped = false;
  for (int attempt = 0; attempt < 3 && !overlapped; ++attempt) {
    parallel::ThreadPool pool(3);
    PartitionStats stats;
    struct Event {
      std::size_t merged, profiled, chunks;
    };
    std::vector<Event> events;
    StreamOptions sopt;
    sopt.partition.chunks = 16;
    sopt.partition.stats = &stats;
    sopt.partition.merge_observer = [&](std::size_t merged,
                                        std::size_t profiled,
                                        std::size_t chunks) {
      events.push_back({merged, profiled, chunks});
    };
    const auto got =
        cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt);
    expect_same(got, want, "attempt=" + std::to_string(attempt));
    EXPECT_EQ(stats.merged_chunks, stats.chunks);
    for (const auto& e : events) {
      EXPECT_LE(e.profiled, e.chunks);
      if (e.profiled < e.chunks) overlapped = true;
    }
    EXPECT_EQ(overlapped, stats.overlapped_merges > 0);
  }
  EXPECT_TRUE(overlapped)
      << "no merge overlapped still-running workers in 3 attempts";
}

TEST(StreamedSweep, StreamedOverlapsOnThePooledPath) {
  // Same property with only two configurations, so each chunk's profile is
  // cheap next to its walk: workers still walk later chunks while earlier
  // ones merge. Identity is asserted every attempt; the overlap flag is
  // retried like above.
  const ir::Program p = ir::parse_program(R"(
    for r<4> {
      for z<1> { S1: A[z] += A[z] }
      for k<16384> { for j<64> { S2: B[j] += B[j] } }
    }
  )");
  const CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs{{2, 1}, {66, 1}};
  const auto want = fuzz::reference_sweep(cp, configs);

  bool overlapped = false;
  for (int attempt = 0; attempt < 3 && !overlapped; ++attempt) {
    parallel::ThreadPool pool(3);
    PartitionStats stats;
    StreamOptions sopt;
    sopt.partition.chunks = 16;
    sopt.partition.stats = &stats;
    const auto got =
        cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt);
    expect_same(got, want, "attempt=" + std::to_string(attempt));
    overlapped = stats.overlapped_merges > 0;
  }
  EXPECT_TRUE(overlapped)
      << "no streamed merge overlapped running workers in 3 attempts";
}

TEST(StreamedSweep, MaxGroupsTruncationMatchesPartitioned) {
  // The one-chunk run of a max_groups prefix is pinned to a plain LRU
  // replay of exactly that prefix; every partitioned run must match it,
  // whatever the chunk count.
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  std::vector<SweepConfig> configs{{4, 1}, {64, 1}};
  const std::uint64_t max_groups = cp.group_count() / 3;
  ASSERT_GT(max_groups, 4u);

  std::vector<SimResult> want(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    cachesim::LruCache lru(configs[i].capacity_elems,
                           cp.address_space_size());
    SimResult& r = want[i];
    r.completeness = Completeness::kTruncated;
    r.misses_by_site.assign(static_cast<std::size_t>(cp.num_sites()), 0);
    cp.walk_runs_range(0, max_groups, [&](const trace::Run* grp,
                                          std::size_t n) {
      for (std::uint64_t v = 0; v < grp[0].count; ++v) {
        for (std::size_t k = 0; k < n; ++k) {
          ++r.accesses;
          if (!lru.access(grp[k].at(v))) {
            ++r.misses;
            ++r.misses_by_site[static_cast<std::size_t>(grp[k].site)];
          }
        }
      }
    });
    ASSERT_LT(r.accesses, cp.total_accesses());
    ASSERT_GT(r.accesses, 0u);
  }

  parallel::ThreadPool pool(2);
  for (int chunks : {1, 4, 7}) {
    PartitionOptions opt = chunked(chunks);
    opt.max_groups = max_groups;
    expect_same(streamed(cp, configs, &pool, opt), want,
                "max_groups chunks=" + std::to_string(chunks));
  }
}

TEST(ParallelSweep, MaxGroupsTruncationIsChunkCountInvariant) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  std::vector<SweepConfig> configs{{4, 1}, {64, 1}};
  const std::uint64_t max_groups = cp.group_count() / 3;
  ASSERT_GT(max_groups, 4u);

  parallel::ThreadPool pool(2);
  PartitionOptions one = chunked(1);
  one.max_groups = max_groups;
  const auto want = streamed(cp, configs, &pool, one);
  for (const auto& r : want) {
    EXPECT_EQ(r.completeness, Completeness::kTruncated);
    EXPECT_LT(r.accesses, cp.total_accesses());
    EXPECT_GT(r.accesses, 0u);
  }
  PartitionOptions four = chunked(4);
  four.max_groups = max_groups;
  expect_same(streamed(cp, configs, &pool, four), want,
              "max_groups chunks=4 vs 1");
}

TEST(ParallelSweep, GovernedCancellationTruncatesExactPrefix) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({12, 12, 12}, {}));
  std::vector<SweepConfig> configs{{16, 1}};
  const auto full = fuzz::reference_sweep(cp, configs);

  parallel::ThreadPool pool(2);
  Governor gov;
  gov.poll_interval = 1;
  gov.cancel.cancel_after(3);
  const auto got = streamed(cp, configs, &pool, chunked(4), &gov);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].completeness, Completeness::kTruncated);
  // The truncated counts are an exact prefix simulation, hence bounded by
  // the full-trace counts.
  EXPECT_LT(got[0].accesses, full[0].accesses);
  EXPECT_LE(got[0].misses, full[0].misses);
}

TEST(StreamedSweep, CancellationMidFrontierYieldsExactPrefix) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({12, 12, 12}, {}));
  std::vector<SweepConfig> configs{{16, 1}, {64, 1}};
  const auto prefix = access_prefix(cp);

  for (const bool pooled : {false, true}) {
    const std::string what = pooled ? "pooled" : "one chunk";
    std::unique_ptr<parallel::ThreadPool> pool;
    if (pooled) pool = std::make_unique<parallel::ThreadPool>(2);
    Governor gov;
    gov.poll_interval = 1;
    gov.cancel.cancel_after(50);
    const auto got =
        streamed(cp, configs, pool.get(), chunked(pooled ? 4 : 1), &gov);
    ASSERT_EQ(got.size(), configs.size());
    EXPECT_EQ(got[0].completeness, Completeness::kTruncated);
    EXPECT_LT(got[0].accesses, cp.total_accesses());

    // The truncated counts must be the bit-exact simulation of some whole
    // group prefix: locate it from the access count, then replay exactly
    // that prefix deterministically.
    std::uint64_t groups = 0;
    bool found = false;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      if (prefix[i] == got[0].accesses) {
        groups = i;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << what << ": truncated accesses " << got[0].accesses
                       << " are not a whole-group prefix";
    if (groups == 0) {
      for (const auto& r : got) EXPECT_EQ(r.misses, 0u);
      continue;
    }
    PartitionOptions replay;
    replay.max_groups = groups;
    expect_same(got, streamed(cp, configs, nullptr, replay),
                "prefix replay " + what);
  }
}

TEST(StreamedSweep, MemoryDenialTruncatesWithoutWalking) {
  // A zero budget denies a pooled 4-chunk plan and its one-chunk retry.
  // Nothing is walked, the tee included: the rows are the truncated empty
  // prefix, the tee got no group and nothing stays charged.
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  const auto configs = standard_configs();

  const std::string tee_path = temp_path("sdlo_stream_denied_tee.spl");
  parallel::ThreadPool pool(2);
  MemoryBudget none(0);
  Governor gov;
  gov.memory = &none;
  {
    trace::SpoolWriter writer(tee_path);
    PartitionStats stats;
    StreamOptions sopt;
    sopt.partition.chunks = 4;
    sopt.partition.stats = &stats;
    sopt.tee = &writer;
    expect_empty_prefix(
        cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt, &gov),
        cp, configs, "budget-denied tee");
    EXPECT_EQ(stats.chunks, 0u) << "a denied run profiled a dense chunk";
    EXPECT_EQ(writer.groups(), 0u) << "a denied run walked the tee";
  }
  EXPECT_EQ(none.used(), 0u);
  EXPECT_FALSE(std::filesystem::exists(tee_path));
}

TEST(ParallelSweep, MemoryDenialTruncatesToTheEmptyPrefix) {
  // A zero budget denies a pooled 4-chunk plan and its one-chunk retry,
  // and the sweep-dense-alloc failpoint denies even an unlimited budget.
  // Either way every row is the truncated empty prefix.
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  const auto configs = standard_configs();

  parallel::ThreadPool pool(2);
  MemoryBudget none(0);
  Governor gov;
  gov.memory = &none;
  PartitionStats stats;
  PartitionOptions opt = chunked(4);
  opt.stats = &stats;
  expect_empty_prefix(streamed(cp, configs, &pool, opt, &gov), cp, configs,
                      "budget-denied");
  EXPECT_EQ(stats.chunks, 0u) << "a denied run profiled a dense chunk";
  EXPECT_EQ(none.used(), 0u);

  failpoints::ScopedFailpoint fp(
      failpoints::kSweepDenseAlloc,
      failpoints::Spec{failpoints::Action::kFailAlloc, 0});
  stats = PartitionStats{};
  expect_empty_prefix(streamed(cp, configs, &pool, opt), cp, configs,
                      "failpoint-denied");
  EXPECT_EQ(stats.chunks, 0u) << "a denied run profiled a dense chunk";
}

TEST(StreamedSweep, OneChunkNeedsOnlyTheStackTables) {
  // One chunk has no reuse crossing a chunk boundary, so a budget of
  // exactly the marker stack's dense tables must let the one-thread sweep
  // run on the dense path — no hole list, no merge index.
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 16, 64, 250, 1024}) {
    configs.push_back({cap, 1});
  }
  const auto want = fuzz::reference_sweep(cp, configs);
  MemoryBudget exact(cp.footprint_lines(1) * cachesim::kStackBytesPerLine);
  Governor gov;
  gov.memory = &exact;
  PartitionStats stats;
  StreamOptions sopt;
  sopt.partition.stats = &stats;
  const auto got =
      cachesim::simulate_sweep_streamed(cp, configs, nullptr, sopt, &gov);
  expect_same(got, want, "one chunk at the exact stack budget");
  EXPECT_EQ(stats.chunks, 1u) << "degraded instead of the dense path";
  EXPECT_EQ(stats.merge_seconds, 0.0);
  EXPECT_EQ(exact.used(), 0u);
}

TEST(StreamedSweep, DeniedMultiChunkPlanRetriesAsOneChunk) {
  // The middle rung of the degradation ladder: a budget of exactly the
  // stack tables denies a 4-thread plan its per-chunk tables and merge
  // table, and the engine must retry as one chunk with no pool — dense,
  // complete and bit-identical — before it gives up and truncates.
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 16, 64, 250, 1024}) {
    configs.push_back({cap, 1});
  }
  parallel::ThreadPool pool(4);
  const auto want = cachesim::simulate_sweep_streamed(cp, configs, &pool);
  MemoryBudget exact(cp.footprint_lines(1) * cachesim::kStackBytesPerLine);
  Governor gov;
  gov.memory = &exact;
  PartitionStats stats;
  StreamOptions sopt;
  sopt.partition.stats = &stats;
  const auto got =
      cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt, &gov);
  expect_same(got, want, "denied 4-chunk plan at the exact stack budget");
  for (const auto& r : got) {
    EXPECT_EQ(r.completeness, Completeness::kComplete);
  }
  EXPECT_EQ(stats.chunks, 1u) << "did not retry as one chunk";
  EXPECT_EQ(exact.used(), 0u);
}

TEST(StreamedSweep, MergeReservationChargesTheIndexAndHoleLists) {
  // A pooled multi-chunk plan holds every chunk's stack tables and hole
  // list (at most one 16-byte Hole per footprint line) plus the merge's
  // RecencyIndex, whose Fenwick tree outgrows its last-access table. A
  // budget of the stack tables plus the last-access table alone must be
  // denied and retried as one chunk; the full charge runs 4 chunks.
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  std::vector<SweepConfig> configs;
  for (std::int64_t cap : {1, 2, 16, 64, 250, 1024}) {
    configs.push_back({cap, 1});
  }
  parallel::ThreadPool pool(4);
  const auto want = cachesim::simulate_sweep_streamed(cp, configs, &pool);
  const std::uint64_t fp = cp.footprint_lines(1);
  const std::uint64_t tables = 4 * fp * cachesim::kStackBytesPerLine;
  const std::uint64_t full = tables + 4 * fp * sizeof(cachesim::Hole) +
                             cachesim::RecencyIndex::max_bytes(fp);
  for (const auto& [budget, chunks] :
       {std::pair{tables + 8 * fp, 1u}, std::pair{full - 1, 1u},
        std::pair{full, 4u}}) {
    MemoryBudget mem(budget);
    Governor gov;
    gov.memory = &mem;
    PartitionStats stats;
    StreamOptions sopt;
    sopt.partition.stats = &stats;
    const auto got =
        cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt, &gov);
    expect_same(got, want, "budget " + std::to_string(budget));
    EXPECT_EQ(stats.chunks, chunks) << "budget " << budget;
    EXPECT_EQ(mem.used(), 0u);
  }
}

TEST(StreamedSweep, TeeWriteFailureUnwindsCleanlyOnThePooledPath) {
  // An injected spool-write failure makes the caller's tee walk throw
  // while the workers are still profiling their chunks: the unwind must
  // stop and drain them without deadlocking the pool or leaving a partial
  // file, and the pool must remain usable afterwards. The writer only
  // touches the disk on 256 KiB buffer flushes, so the trace must be large
  // enough (and encoded verbosely enough — alternating statements defeat
  // the delta encoding) that a flush happens mid-walk.
  const ir::Program p = ir::parse_program(R"(
    for i<256> { for j<256> {
      for a<2> { S1: A[i,a] += A[i,a] }
      for b<2> { S2: B[j,b] += C[b,j] }
    } }
  )");
  const CompiledProgram cp(p, {});
  std::vector<SweepConfig> configs{{16, 1}};
  const std::string tee_path = temp_path("sdlo_stream_failpoint_tee.spl");
  std::remove(tee_path.c_str());

  parallel::ThreadPool pool(2);
  {
    failpoints::ScopedFailpoint fp(
        failpoints::kSpoolWrite,
        failpoints::Spec{failpoints::Action::kFailAlloc, 0});
    trace::SpoolWriter writer(tee_path);
    StreamOptions sopt;
    sopt.partition.chunks = 4;
    sopt.tee = &writer;
    EXPECT_THROW(
        cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt),
        trace::IoError);
  }
  EXPECT_FALSE(std::filesystem::exists(tee_path));
  EXPECT_FALSE(std::filesystem::exists(tee_path + ".tmp"));

  // Disarmed, the same pool finishes the same job.
  const auto want = fuzz::reference_sweep(cp, configs);
  StreamOptions sopt;
  sopt.partition.chunks = 4;
  const auto got =
      cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt);
  expect_same(got, want, "pool reuse after injected tee failure");
}

TEST(StreamedSweep, DroppedPoolTaskSurfacesWithoutDeadlock) {
  // The pool-task failpoint makes every chunk task die before it walks:
  // the frontier must notice (via idle polling) instead of waiting forever
  // for a chunk that never signals, and the failure must surface.
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({12, 12, 12}, {}));
  std::vector<SweepConfig> configs{{16, 1}};
  parallel::ThreadPool pool(2);
  failpoints::ScopedFailpoint fp(
      failpoints::kPoolTask,
      failpoints::Spec{failpoints::Action::kThrow, 0});
  StreamOptions sopt;
  sopt.partition.chunks = 4;
  EXPECT_THROW(
      cachesim::simulate_sweep_streamed(cp, configs, &pool, sopt),
      InjectedFault);
}

TEST(StreamedSweep, EmptyConfigListAndZeroAccessPrograms) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  EXPECT_TRUE(cachesim::simulate_sweep_streamed(cp, {}).empty());

  // A one-group program is the smallest possible chunking: one chunk, no
  // holes to merge beyond the cold ones.
  const ir::Program p = ir::parse_program("for i<1> { S1: A[i] += A[i] }");
  const CompiledProgram tiny(p, {});
  std::vector<SweepConfig> configs{{4, 1}};
  const auto want = fuzz::reference_sweep(tiny, configs);
  const auto got = cachesim::simulate_sweep_streamed(tiny, configs);
  expect_same(got, want, "tiny program");
}

}  // namespace
