// LRU recency index over dense line ids: the exact stack-distance technique
// of Almasi, Cascaval & Padua [ref 3 of the paper]. Every live line carries
// its last-access timestamp; a Fenwick tree over timestamps counts the live
// ones, so the distinct lines touched since a line's own last access are
// one suffix count. Timestamps are renumbered (compacted) when the window
// fills, so the tree tracks the live set, not the timestamps ever issued.
//
// profile_stack_distances (sim.hpp) feeds every access as
// `d = resolve(line); append(line);` (d is the LRU stack depth, 0 when
// cold). The streamed sweep's hole merge (parallel_stack.cpp) resolves
// a chunk's holes without re-appending them, then appends the chunk's
// resident lines in recency order.
#pragma once

#include <cstdint>
#include <vector>

namespace sdlo::cachesim {

class RecencyIndex {
 public:
  /// Every line fed must be < `lines`; the last-access table is a dense
  /// vector of that size.
  explicit RecencyIndex(std::uint64_t lines);

  /// When `line` is live: returns the number of live timestamps at or after
  /// its own (its own included, so >= 1) and removes the line. Returns 0
  /// when the line is absent.
  std::uint64_t resolve(std::uint64_t line);

  /// Gives `line` (must be absent) a fresh, newest timestamp.
  void append(std::uint64_t line);

  /// Timestamps the Fenwick tree currently spans.
  std::size_t window() const { return window_; }

  /// Worst-case bytes an index over `lines` lines holds at once: the
  /// last-access table (one uint64 per line) plus the Fenwick tree (one
  /// int32 per timestamp, window + 1 entries). The window starts at
  /// max(1024, bit_ceil(lines) / 16), so that the O(lines) scan of a
  /// compaction amortizes over at least lines / 16 appends, and when a
  /// compaction finds half of it live, grows to bit_ceil(4 * live + 2);
  /// live <= lines bounds it. A compaction renumbers in place and frees
  /// the old tree before growing it.
  static std::uint64_t max_bytes(std::uint64_t lines);

 private:
  void bit_update(std::size_t pos, std::int32_t delta);
  std::int64_t count_before(std::size_t pos) const;  // live in [0, pos)
  void compact();

  std::vector<std::uint64_t> pos_of_;  // dense line -> timestamp, or kNoPos
  std::vector<std::int32_t> tree_;     // Fenwick over timestamps, 1-based
  std::size_t window_ = 0;
  std::uint64_t cur_ = 0;              // next timestamp
  std::int64_t live_ = 0;              // live timestamps
};

}  // namespace sdlo::cachesim
