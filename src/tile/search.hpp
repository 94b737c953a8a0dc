// Tile-size search (§6).
//
// The paper's search exploits the phase structure of the miss-count
// function: as tile sizes grow, misses decrease monotonically until some
// stack distance crosses the cache size, where they jump. Only tile tuples
// *just below a crossing* (maximal tuples: no single dimension can grow
// without a new distance exceeding the capacity) need be considered, plus a
// finer search around them. The search therefore:
//
//   1. scores a coarse multiplicative grid with the FastMissModel,
//   2. keeps crossing-maximal candidates (and the grid's best scorer),
//   3. refines around each candidate over neighbouring divisor values,
//   4. deduplicates and returns tuples ranked by modeled misses.
//
// Scoring goes through tile::Scorer, which memoizes on the tile tuple (the
// refinement rounds revisit many neighbours) and can fan a batch of
// unscored tuples out over a parallel::ThreadPool.
//
// Unknown loop bounds (Table 4) are handled by scoring in the large-bound
// limit: bounds are bound to a huge virtual value, which drives every
// bound-dependent (inter-tile) stack distance past any finite cache — the
// ranking is then governed purely by the intra-tile expressions, exactly as
// in the paper.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/gallery.hpp"
#include "model/analyzer.hpp"
#include "parallel/thread_pool.hpp"
#include "support/governor.hpp"
#include "tile/fast_model.hpp"
#include "trace/walker.hpp"

namespace sdlo::tile {

/// One scored tile tuple.
struct Candidate {
  std::vector<std::int64_t> tiles;
  double modeled_misses = 0;
};

/// Search configuration.
struct SearchOptions {
  /// Largest tile value considered per dimension (paper: 512).
  std::int64_t max_tile = 512;
  /// When true, bounds are replaced by a large virtual value, 2^14 (the
  /// unknown-loop-bounds mode of §6 / Table 4).
  bool unknown_bounds = false;
  /// Optional worker pool: batches of unscored tuples are evaluated in
  /// parallel (the FastMissModel is immutable and thread-safe).
  parallel::ThreadPool* pool = nullptr;
  /// Optional resource governor. The search polls it between scoring
  /// passes (after the coarse grid, before each refinement round) and,
  /// when a budget trips, returns the best candidates found so far marked
  /// Completeness::kTruncated.
  const Governor* governor = nullptr;
};

/// Search outcome with bookkeeping for the ablation benches.
struct SearchResult {
  Candidate best;
  std::vector<Candidate> candidates;  ///< ranked, post-refinement
  std::size_t evaluations = 0;        ///< fast-model scores performed
  std::size_t cache_hits = 0;         ///< scores served from the memo table
  /// kTruncated when the governor stopped refinement early; `best` is then
  /// the best candidate of the rounds that did run.
  Completeness completeness = Completeness::kComplete;
};

/// Memoizing fast-model scorer over tile tuples. operator() and prefetch()
/// are intended for one driving thread; prefetch() internally fans work out
/// over the pool.
class Scorer {
 public:
  Scorer(const ir::GalleryProgram& g, const FastMissModel& fast,
         std::vector<std::int64_t> bounds, std::int64_t capacity,
         parallel::ThreadPool* pool = nullptr);

  /// Score of one tile tuple, memoized on the tuple.
  const FastMissModel::Score& operator()(
      const std::vector<std::int64_t>& tiles);

  /// Ensures every tuple is memoized, scoring missing ones (in parallel
  /// when a pool is available).
  void prefetch(const std::vector<std::vector<std::int64_t>>& tuples);

  /// Exact *simulated* misses of one tile tuple at the scorer's capacity:
  /// compiles the program with the tuple bound in and runs the streamed
  /// sweep engine (one chunk) over its trace. Used by the validation
  /// columns of the ablation benches to ground the modeled ranking.
  /// Memoized on the tuple (separately from the fast-model memo).
  std::uint64_t simulated_misses(const std::vector<std::int64_t>& tiles);

  /// Fast-model evaluations actually performed.
  std::size_t evaluations() const { return evaluations_; }

  /// Lookups answered from the memo table without re-scoring.
  std::size_t cache_hits() const { return cache_hits_; }

 private:
  struct TupleHash {
    std::size_t operator()(const std::vector<std::int64_t>& t) const {
      std::size_t h = 0x9E3779B97F4A7C15ull ^ t.size();
      for (std::int64_t v : t) {
        h ^= static_cast<std::size_t>(v) + 0x9E3779B97F4A7C15ull +
             (h << 6) + (h >> 2);
      }
      return h;
    }
  };

  FastMissModel::Score evaluate(const std::vector<std::int64_t>& tiles) const;

  const ir::GalleryProgram& g_;
  const FastMissModel& fast_;
  std::vector<std::int64_t> bounds_;
  std::int64_t capacity_;
  parallel::ThreadPool* pool_;
  std::unordered_map<std::vector<std::int64_t>, FastMissModel::Score,
                     TupleHash>
      memo_;
  std::unordered_map<std::vector<std::int64_t>, std::uint64_t, TupleHash>
      sim_memo_;
  std::size_t evaluations_ = 0;
  std::size_t cache_hits_ = 0;
};

/// Runs the pruned search for `g` (a tiled gallery program) with the given
/// concrete bounds (ignored in unknown-bounds mode) and cache capacity in
/// elements. Tile values are powers of two dividing the bound.
SearchResult search_tiles(const ir::GalleryProgram& g,
                          const FastMissModel& fast,
                          const std::vector<std::int64_t>& bounds,
                          std::int64_t capacity,
                          const SearchOptions& opts = {});

/// Exhaustive baseline: scores every power-of-two combination (ablation
/// A2). Same result contract as search_tiles.
SearchResult exhaustive_tiles(const ir::GalleryProgram& g,
                              const FastMissModel& fast,
                              const std::vector<std::int64_t>& bounds,
                              std::int64_t capacity,
                              const SearchOptions& opts = {});

}  // namespace sdlo::tile
