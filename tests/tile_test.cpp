// Tests for the tile-size machinery: fast model fidelity, the pruned
// search (§6), unknown-bounds mode (Table 4) and the capacity baseline.
#include "support/check.hpp"
#include <gtest/gtest.h>

#include "cachesim/sim.hpp"
#include "ir/gallery.hpp"
#include "model/analyzer.hpp"
#include "support/governor.hpp"
#include "tile/capacity_model.hpp"
#include "tile/fast_model.hpp"
#include "tile/search.hpp"
#include "trace/walker.hpp"

namespace sdlo::tile {
namespace {

TEST(FastModel, TracksExactModelOnMatmul) {
  auto g = ir::matmul_tiled();
  const auto an = model::analyze(g.prog);
  FastMissModel fast(an);
  // The fast model is the paper's expression-level approximation; it must
  // stay within a few percent of the exact model away from capacity knees.
  for (const auto& tiles : std::vector<std::vector<std::int64_t>>{
           {4, 4, 4}, {8, 8, 8}, {16, 16, 16}, {4, 16, 8}, {32, 4, 4}}) {
    const auto env = g.make_env({32, 32, 32}, tiles);
    for (std::int64_t cap : {64, 256, 1024}) {
      const auto exact = model::predict_misses(an, env, cap);
      const double approx = fast.misses(env, cap);
      const double rel =
          std::abs(approx - static_cast<double>(exact.misses)) /
          std::max(1.0, static_cast<double>(exact.misses));
      EXPECT_LT(rel, 0.35) << "tiles " << tiles[0] << "," << tiles[1] << ","
                           << tiles[2] << " cap " << cap << " exact "
                           << exact.misses << " approx " << approx;
    }
  }
}

TEST(FastModel, RanksConfigurationsLikeTheSimulator) {
  // Ranking quality is what the search needs: compare the fast model's
  // ordering of tile tuples with the simulator's on a small problem.
  auto g = ir::matmul_tiled();
  const auto an = model::analyze(g.prog);
  FastMissModel fast(an);
  const std::int64_t cap = 96;
  std::vector<std::vector<std::int64_t>> configs{
      {2, 2, 2}, {4, 4, 4}, {8, 8, 8}, {16, 16, 16},
      {4, 16, 4}, {16, 4, 8}};
  std::vector<double> approx;
  std::vector<std::uint64_t> actual;
  for (const auto& tiles : configs) {
    const auto env = g.make_env({16, 16, 16}, tiles);
    approx.push_back(fast.misses(env, cap));
    trace::CompiledProgram cp(g.prog, env);
    actual.push_back(cachesim::simulate_lru(cp, cap).misses);
  }
  // The argmin must match.
  const auto best_a =
      std::min_element(approx.begin(), approx.end()) - approx.begin();
  const auto best_s =
      std::min_element(actual.begin(), actual.end()) - actual.begin();
  EXPECT_EQ(best_a, best_s);
}

TEST(FastModel, SymbolsCoverBoundsAndTiles) {
  auto g = ir::two_index_tiled();
  const auto an = model::analyze(g.prog);
  FastMissModel fast(an);
  for (const auto& b : g.bounds) {
    EXPECT_TRUE(fast.symbols().count(b)) << b;
  }
  for (const auto& t : g.tiles) {
    EXPECT_TRUE(fast.symbols().count(t)) << t;
  }
}

TEST(Search, FindsExhaustiveOptimumOnMatmul) {
  auto g = ir::matmul_tiled();
  const auto an = model::analyze(g.prog);
  FastMissModel fast(an);
  SearchOptions opts;
  opts.max_tile = 64;
  const auto pruned = search_tiles(g, fast, {64, 64, 64}, 512, opts);
  const auto full = exhaustive_tiles(g, fast, {64, 64, 64}, 512, opts);
  EXPECT_LE(pruned.best.modeled_misses, full.best.modeled_misses * 1.02);
  EXPECT_LT(pruned.evaluations, full.evaluations * 2);
}

TEST(Search, UnknownBoundsMatchesLargeKnownBounds) {
  // Table 4's headline: with large bounds, the best tile is independent of
  // the bounds, and the unknown-bounds search returns the same tuple.
  auto g = ir::two_index_tiled();
  const auto an = model::analyze(g.prog);
  FastMissModel fast(an);
  SearchOptions opts;
  opts.max_tile = 64;
  SearchOptions unknown = opts;
  unknown.unknown_bounds = true;
  const auto u = search_tiles(g, fast, {}, 1024, unknown);
  const auto k = search_tiles(g, fast, {256, 256, 256, 256}, 1024, opts);
  EXPECT_EQ(u.best.tiles, k.best.tiles);
}

TEST(Search, CacheResidentProblemPrefersFullTiles) {
  auto g = ir::matmul_tiled();
  const auto an = model::analyze(g.prog);
  FastMissModel fast(an);
  SearchOptions opts;
  opts.max_tile = 16;
  // Everything fits: 3*16*16 = 768 elements << 10^5.
  const auto r = search_tiles(g, fast, {16, 16, 16}, 100000, opts);
  EXPECT_EQ(r.best.tiles, (std::vector<std::int64_t>{16, 16, 16}));
}

TEST(Search, ReportsEvaluationCount) {
  auto g = ir::matmul_tiled();
  const auto an = model::analyze(g.prog);
  FastMissModel fast(an);
  SearchOptions opts;
  opts.max_tile = 32;
  const auto r = search_tiles(g, fast, {32, 32, 32}, 256, opts);
  EXPECT_GT(r.evaluations, 0u);
  EXPECT_FALSE(r.candidates.empty());
  // Candidates are ranked.
  for (std::size_t i = 1; i < r.candidates.size(); ++i) {
    EXPECT_LE(r.candidates[i - 1].modeled_misses,
              r.candidates[i].modeled_misses);
  }
}

TEST(Search, GovernedSearchReturnsTruncatedBestSoFar) {
  auto g = ir::matmul_tiled();
  const auto an = model::analyze(g.prog);
  FastMissModel fast(an);
  SearchOptions opts;
  opts.max_tile = 64;
  const auto full = search_tiles(g, fast, {64, 64, 64}, 512, opts);
  EXPECT_EQ(full.completeness, Completeness::kComplete);

  // Cancel before any refinement round: the coarse-grid result must still
  // come back, marked truncated.
  Governor gov;
  gov.cancel.request_cancel();
  SearchOptions governed = opts;
  governed.governor = &gov;
  const auto part = search_tiles(g, fast, {64, 64, 64}, 512, governed);
  EXPECT_EQ(part.completeness, Completeness::kTruncated);
  ASSERT_FALSE(part.candidates.empty());
  EXPECT_FALSE(part.best.tiles.empty());
  // Refinement only improves the beam: the truncated best is no better
  // than the fully refined best.
  EXPECT_GE(part.best.modeled_misses, full.best.modeled_misses - 1e-9);
}

TEST(CapacityModel, UpperBoundsColdMisses) {
  auto g = ir::matmul_tiled();
  const auto env = g.make_env({16, 16, 16}, {4, 4, 4});
  trace::CompiledProgram cp(g.prog, env);
  // The capacity model never predicts fewer misses than compulsory
  // (footprint) and never more than the total access count.
  const auto cm = capacity_model_misses(g.prog, env, 64);
  EXPECT_GE(cm, static_cast<std::int64_t>(cp.address_space_size()));
  EXPECT_LE(cm, static_cast<std::int64_t>(cp.total_accesses()));
}

TEST(CapacityModel, HugeCacheGivesFootprint) {
  auto g = ir::matmul_tiled();
  const auto env = g.make_env({8, 8, 8}, {4, 4, 4});
  trace::CompiledProgram cp(g.prog, env);
  EXPECT_EQ(capacity_model_misses(g.prog, env, 1 << 28),
            static_cast<std::int64_t>(cp.address_space_size()));
}

TEST(CapacityModel, CoarserThanStackDistanceModel) {
  // The paper's §3 criticism: the capacity model over-predicts when some
  // references still hit although the total footprint exceeds the cache.
  auto g = ir::matmul_tiled();
  const auto env = g.make_env({16, 16, 16}, {8, 8, 8});
  const auto an = model::analyze(g.prog);
  const std::int64_t cap = 128;  // tile working set > 128 elements
  const auto exact = model::predict_misses(an, env, cap);
  const auto cm = capacity_model_misses(g.prog, env, cap);
  EXPECT_GT(cm, exact.misses);
}

}  // namespace
}  // namespace sdlo::tile
