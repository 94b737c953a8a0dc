#include "tile/search.hpp"

#include <algorithm>
#include <exception>
#include <set>

#include "cachesim/parallel_stack.hpp"
#include "support/check.hpp"
#include "trace/walker.hpp"

namespace sdlo::tile {

namespace {

/// Candidates carried into each refinement round, and the rounds (each
/// explores neighbouring divisor values).
constexpr std::size_t kBeam = 8;
constexpr int kRefineRounds = 3;

/// The bound every loop gets in unknown-bounds mode: a power of two, so
/// every candidate tile value divides it, and 2^14 so that four-bound
/// reference-count products stay within 64-bit range.
constexpr std::int64_t kVirtualBound = std::int64_t{1} << 14;

/// Candidate tile values for one dimension: powers of two in
/// [1, min(max_tile, bound)] dividing the bound, ascending.
std::vector<std::int64_t> value_ladder(std::int64_t bound,
                                       const SearchOptions& opts) {
  std::vector<std::int64_t> out;
  for (std::int64_t v = 1; v <= bound && v <= opts.max_tile; v *= 2) {
    if (bound % v == 0) out.push_back(v);
  }
  SDLO_CHECK(!out.empty(), "no admissible tile values for this bound");
  return out;
}

sym::Env bind(const ir::GalleryProgram& g,
              const std::vector<std::int64_t>& bounds,
              const std::vector<std::int64_t>& tiles) {
  return g.make_env(bounds, tiles);
}

void sort_and_dedupe(std::vector<Candidate>& cs) {
  std::sort(cs.begin(), cs.end(), [](const Candidate& a, const Candidate& b) {
    if (a.modeled_misses != b.modeled_misses) {
      return a.modeled_misses < b.modeled_misses;
    }
    // Tie-break towards larger tiles: equal miss counts (e.g. everything
    // cache-resident) favour fewer tile-loop iterations.
    return a.tiles > b.tiles;
  });
  cs.erase(std::unique(cs.begin(), cs.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.tiles == b.tiles;
                       }),
           cs.end());
}

/// Row-major index layout over the ladder grid: the last dimension varies
/// fastest; stepping dimension d up one ladder rung adds stride[d].
struct GridLayout {
  std::vector<std::size_t> sizes;
  std::vector<std::size_t> strides;
  std::size_t total = 1;

  explicit GridLayout(const std::vector<std::vector<std::int64_t>>& ladders) {
    sizes.reserve(ladders.size());
    for (const auto& l : ladders) sizes.push_back(l.size());
    strides.assign(ladders.size(), 1);
    for (std::size_t d = ladders.size(); d-- > 0;) {
      strides[d] = total;
      total *= sizes[d];
    }
  }

  std::size_t index_in_dim(std::size_t flat, std::size_t d) const {
    return (flat / strides[d]) % sizes[d];
  }
};

/// All grid tuples in flat row-major order.
std::vector<std::vector<std::int64_t>> grid_tuples(
    const std::vector<std::vector<std::int64_t>>& ladders,
    const GridLayout& layout) {
  std::vector<std::vector<std::int64_t>> tuples;
  tuples.reserve(layout.total);
  std::vector<std::size_t> idx(ladders.size(), 0);
  std::vector<std::int64_t> tiles(ladders.size());
  for (std::size_t flat = 0; flat < layout.total; ++flat) {
    for (std::size_t d = 0; d < ladders.size(); ++d) {
      tiles[d] = ladders[d][idx[d]];
    }
    tuples.push_back(tiles);
    for (std::size_t d = ladders.size(); d-- > 0;) {
      if (++idx[d] < ladders[d].size()) break;
      idx[d] = 0;
    }
  }
  return tuples;
}

/// Ladder position of a value (the ladder is sorted ascending).
std::size_t ladder_pos(const std::vector<std::int64_t>& ladder,
                       std::int64_t value) {
  const auto it = std::lower_bound(ladder.begin(), ladder.end(), value);
  SDLO_CHECK(it != ladder.end() && *it == value, "candidate off the ladder");
  return static_cast<std::size_t>(it - ladder.begin());
}

std::vector<std::vector<std::int64_t>> make_ladders(
    const ir::GalleryProgram& g, const std::vector<std::int64_t>& eff_bounds,
    const SearchOptions& opts) {
  std::vector<std::vector<std::int64_t>> ladders;
  for (const auto& tile_sym : g.tiles) {
    const auto& bound_sym = g.tile_of.at(tile_sym);
    const auto pos = static_cast<std::size_t>(
        std::find(g.bounds.begin(), g.bounds.end(), bound_sym) -
        g.bounds.begin());
    ladders.push_back(value_ladder(eff_bounds[pos], opts));
  }
  return ladders;
}

}  // namespace

Scorer::Scorer(const ir::GalleryProgram& g, const FastMissModel& fast,
               std::vector<std::int64_t> bounds, std::int64_t capacity,
               parallel::ThreadPool* pool)
    : g_(g),
      fast_(fast),
      bounds_(std::move(bounds)),
      capacity_(capacity),
      pool_(pool) {}

FastMissModel::Score Scorer::evaluate(
    const std::vector<std::int64_t>& tiles) const {
  return fast_.score(bind(g_, bounds_, tiles), capacity_);
}

const FastMissModel::Score& Scorer::operator()(
    const std::vector<std::int64_t>& tiles) {
  auto it = memo_.find(tiles);
  if (it != memo_.end()) {
    ++cache_hits_;
    return it->second;
  }
  ++evaluations_;
  return memo_.emplace(tiles, evaluate(tiles)).first->second;
}

std::uint64_t Scorer::simulated_misses(
    const std::vector<std::int64_t>& tiles) {
  auto it = sim_memo_.find(tiles);
  if (it != sim_memo_.end()) {
    ++cache_hits_;
    return it->second;
  }
  trace::CompiledProgram cp(g_.prog, g_.make_env(bounds_, tiles));
  const auto r = cachesim::simulate_sweep_streamed(cp, {{capacity_, 1}});
  return sim_memo_.emplace(tiles, r[0].misses).first->second;
}

void Scorer::prefetch(const std::vector<std::vector<std::int64_t>>& tuples) {
  // Unscored tuples, deduplicated.
  std::vector<const std::vector<std::int64_t>*> missing;
  std::set<std::vector<std::int64_t>> batch_seen;
  for (const auto& t : tuples) {
    if (memo_.count(t) != 0 || !batch_seen.insert(t).second) continue;
    missing.push_back(&t);
  }
  if (missing.empty()) return;
  evaluations_ += missing.size();

  const int threads = pool_ ? pool_->num_threads() : 1;
  if (threads <= 1 || missing.size() == 1) {
    for (const auto* t : missing) memo_.emplace(*t, evaluate(*t));
    return;
  }
  std::vector<FastMissModel::Score> scores(missing.size());
  const std::size_t chunks = std::min<std::size_t>(
      missing.size(), static_cast<std::size_t>(threads));
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (std::size_t c = 0; c < chunks; ++c) {
    pool_->submit([&, c] {
      try {
        for (std::size_t i = c; i < missing.size(); i += chunks) {
          scores[i] = evaluate(*missing[i]);
        }
      } catch (...) {
        std::scoped_lock lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool_->wait_idle();
  if (first_error) std::rethrow_exception(first_error);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    memo_.emplace(*missing[i], std::move(scores[i]));
  }
}

SearchResult search_tiles(const ir::GalleryProgram& g,
                          const FastMissModel& fast,
                          const std::vector<std::int64_t>& bounds,
                          std::int64_t capacity,
                          const SearchOptions& opts) {
  SDLO_CHECK(!g.tiles.empty(), "program has no tile symbols to search");
  std::vector<std::int64_t> eff_bounds = bounds;
  if (opts.unknown_bounds) {
    eff_bounds.assign(g.bounds.size(), kVirtualBound);
  }
  SDLO_CHECK(eff_bounds.size() == g.bounds.size(),
             "bounds arity mismatch");

  const auto ladders = make_ladders(g, eff_bounds, opts);
  const GridLayout layout(ladders);
  Scorer score(g, fast, eff_bounds, capacity, opts.pool);

  // Coarse pass: score the whole power-of-two grid (in parallel when a pool
  // is available), remembering each tuple's fitting set for crossing
  // detection. Tuples live at their flat grid index, so the single-step
  // neighbour of tuple `flat` in dimension d is flat + strides[d] — no
  // associative lookup needed.
  const auto tuples = grid_tuples(ladders, layout);
  score.prefetch(tuples);
  struct GridPoint {
    double misses;
    std::set<std::size_t> fitting;
  };
  std::vector<GridPoint> grid;
  grid.reserve(layout.total);
  for (const auto& tiles : tuples) {
    const auto& s = score(tiles);
    grid.push_back(GridPoint{s.misses, s.fitting(capacity)});
  }

  // Crossing-maximal selection: a point is kept when every single-dimension
  // step up loses some currently-fitting reuse (or is at the ladder top).
  std::vector<Candidate> pool;
  for (std::size_t flat = 0; flat < layout.total; ++flat) {
    bool maximal = true;
    for (std::size_t d = 0; d < ladders.size() && maximal; ++d) {
      if (layout.index_in_dim(flat, d) + 1 >= layout.sizes[d]) {
        continue;  // at the top: fine
      }
      const GridPoint& neighbor = grid[flat + layout.strides[d]];
      // Does stepping up keep every fitting reuse fitting?
      const bool keeps_all = std::includes(
          neighbor.fitting.begin(), neighbor.fitting.end(),
          grid[flat].fitting.begin(), grid[flat].fitting.end());
      if (keeps_all) maximal = false;  // the larger tile dominates
    }
    if (maximal) pool.push_back(Candidate{tuples[flat], grid[flat].misses});
  }
  // Always carry the grid's best scorer.
  std::size_t best_flat = 0;
  for (std::size_t flat = 1; flat < layout.total; ++flat) {
    if (grid[flat].misses < grid[best_flat].misses) best_flat = flat;
  }
  pool.push_back(Candidate{tuples[best_flat], grid[best_flat].misses});
  sort_and_dedupe(pool);
  if (pool.size() > kBeam) pool.resize(kBeam);

  // Refinement: explore divisor neighbours of each candidate. Each round
  // batches every neighbour through the scorer (memoized, so revisited
  // tuples cost a hash lookup, and fresh ones can score in parallel). A
  // governed search polls between rounds: the beam is a complete ranking
  // of everything scored so far, so stopping here yields a valid (if less
  // refined) best candidate.
  Completeness completeness = Completeness::kComplete;
  for (int round = 0; round < kRefineRounds; ++round) {
    if (governor_should_stop(opts.governor)) {
      completeness = Completeness::kTruncated;
      break;
    }
    std::vector<std::vector<std::int64_t>> neighbours;
    for (const auto& c : pool) {
      for (std::size_t d = 0; d < ladders.size(); ++d) {
        const std::size_t at = ladder_pos(ladders[d], c.tiles[d]);
        for (int dir : {-1, +1}) {
          const std::size_t j = at + static_cast<std::size_t>(dir);
          if (j >= ladders[d].size()) continue;  // wraps below 0 too
          std::vector<std::int64_t> t = c.tiles;
          t[d] = ladders[d][j];
          neighbours.push_back(std::move(t));
        }
      }
    }
    score.prefetch(neighbours);
    std::vector<Candidate> next = pool;
    for (auto& t : neighbours) {
      const double m = score(t).misses;
      next.push_back(Candidate{std::move(t), m});
    }
    sort_and_dedupe(next);
    if (next.size() > kBeam) next.resize(kBeam);
    pool = std::move(next);
  }

  SearchResult r;
  r.candidates = pool;
  r.best = pool.front();
  r.evaluations = score.evaluations();
  r.cache_hits = score.cache_hits();
  r.completeness = completeness;
  return r;
}

SearchResult exhaustive_tiles(const ir::GalleryProgram& g,
                              const FastMissModel& fast,
                              const std::vector<std::int64_t>& bounds,
                              std::int64_t capacity,
                              const SearchOptions& opts) {
  std::vector<std::int64_t> eff_bounds = bounds;
  if (opts.unknown_bounds) {
    eff_bounds.assign(g.bounds.size(), kVirtualBound);
  }
  const auto ladders = make_ladders(g, eff_bounds, opts);
  const GridLayout layout(ladders);
  Scorer score(g, fast, eff_bounds, capacity, opts.pool);
  const auto tuples = grid_tuples(ladders, layout);
  score.prefetch(tuples);
  std::vector<Candidate> all;
  all.reserve(tuples.size());
  for (const auto& tiles : tuples) {
    all.push_back(Candidate{tiles, score(tiles).misses});
  }
  sort_and_dedupe(all);
  SearchResult r;
  r.best = all.front();
  if (all.size() > kBeam) all.resize(kBeam);
  r.candidates = std::move(all);
  r.evaluations = score.evaluations();
  r.cache_hits = score.cache_hits();
  return r;
}

}  // namespace sdlo::tile
