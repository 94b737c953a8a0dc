// Closed-form miss model for tile-size search (§6).
//
// predict_misses() is exact but builds a partition's whole stack-distance
// histogram (symbolic_sweep.hpp) for every environment, which is too slow
// inside a search loop that scores thousands of tile-size tuples.
// The paper instead evaluates the *symbolic* stack-distance expressions of
// each partition (Table 1) and classifies whole partitions against the cache
// size, interpolating linearly when a partition's distance straddles the
// capacity (§5.2's min/max treatment). FastMissModel implements exactly
// that: per partition it pre-substitutes every corner of the coordinate box
// into the symbolic distance at construction time (multilinear distances
// attain their extremes at corners), so scoring one tile tuple is a handful
// of closed-form evaluations — microseconds.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "model/analyzer.hpp"

namespace sdlo::tile {

/// Reusable closed-form scorer derived from a program analysis.
class FastMissModel {
 public:
  explicit FastMissModel(const model::Analysis& an);

  /// Everything the search needs about one binding, in one pass.
  struct Score {
    double misses = 0;
    /// min/max stack distance per finite partition (row order is stable).
    std::vector<std::int64_t> min;
    std::vector<std::int64_t> max;

    /// Indices of rows whose accesses all hit a cache of `capacity`.
    std::set<std::size_t> fitting(std::int64_t capacity) const {
      std::set<std::size_t> out;
      for (std::size_t i = 0; i < max.size(); ++i) {
        if (max[i] <= capacity) out.insert(i);
      }
      return out;
    }
  };

  /// Scores a full binding of user symbols against `capacity`.
  Score score(const sym::Env& env, std::int64_t capacity) const;

  /// Approximate miss count (convenience wrapper over score()).
  double misses(const sym::Env& env, std::int64_t capacity) const {
    return score(env, capacity).misses;
  }

  /// Number of finite (non-cold) partitions.
  std::size_t num_rows() const { return rows_.size(); }

  /// Free user symbols the model depends on (bounds + tile sizes).
  const std::set<std::string>& symbols() const { return symbols_; }

 private:
  struct Row {
    sym::Expr count;                 ///< user symbols only
    std::vector<sym::Expr> min_sds;  ///< candidate minimum-corner distances
    std::vector<sym::Expr> max_sds;  ///< candidate maximum-corner distances
  };
  struct ColdRow {
    sym::Expr count;
  };

  std::vector<Row> rows_;
  std::vector<ColdRow> cold_;
  std::set<std::string> symbols_;
};

}  // namespace sdlo::tile
