#include "cachesim/recency_index.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/check.hpp"

namespace sdlo::cachesim {

namespace {

constexpr std::uint64_t kNoPos = std::numeric_limits<std::uint64_t>::max();

constexpr std::size_t kMinWindow = std::size_t{1} << 10;

std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

/// A compaction scans the whole last-access table, so the first window
/// grows with the table: then it costs O(1) per append amortized even when
/// few lines are live.
std::size_t initial_window(std::uint64_t lines) {
  return std::max<std::size_t>(
      kMinWindow, static_cast<std::size_t>(std::bit_ceil(lines) / 16));
}

}  // namespace

RecencyIndex::RecencyIndex(std::uint64_t lines)
    : pos_of_(static_cast<std::size_t>(lines), kNoPos),
      tree_(initial_window(lines) + 1, 0),
      window_(initial_window(lines)) {}

std::uint64_t RecencyIndex::max_bytes(std::uint64_t lines) {
  const std::uint64_t window =
      std::max<std::uint64_t>(std::bit_ceil(4 * lines + 2), kMinWindow);
  return lines * sizeof(std::uint64_t) + (window + 1) * sizeof(std::int32_t);
}

void RecencyIndex::bit_update(std::size_t pos, std::int32_t delta) {
  for (std::size_t i = pos + 1; i <= window_; i += lowbit(i)) {
    tree_[i] += delta;
  }
}

std::int64_t RecencyIndex::count_before(std::size_t pos) const {
  std::int64_t s = 0;
  for (std::size_t i = pos; i > 0; i -= lowbit(i)) s += tree_[i];
  return s;
}

std::uint64_t RecencyIndex::resolve(std::uint64_t line) {
  SDLO_EXPECTS(line < pos_of_.size());
  const std::uint64_t p = pos_of_[static_cast<std::size_t>(line)];
  if (p == kNoPos) return 0;
  const std::int64_t cnt = live_ - count_before(static_cast<std::size_t>(p));
  bit_update(static_cast<std::size_t>(p), -1);
  --live_;
  pos_of_[static_cast<std::size_t>(line)] = kNoPos;
  return static_cast<std::uint64_t>(cnt);
}

void RecencyIndex::append(std::uint64_t line) {
  SDLO_EXPECTS(line < pos_of_.size());
  if (cur_ >= window_) compact();
  pos_of_[static_cast<std::size_t>(line)] = cur_;
  bit_update(static_cast<std::size_t>(cur_), +1);
  ++cur_;
  ++live_;
}

void RecencyIndex::compact() {
  // Renumber the live timestamps to 0..live-1 in order: each becomes its
  // rank, the number of live timestamps before it.
  std::int64_t renumbered = 0;
  for (std::uint64_t& p : pos_of_) {
    if (p == kNoPos) continue;
    p = static_cast<std::uint64_t>(count_before(static_cast<std::size_t>(p)));
    ++renumbered;
  }
  SDLO_ENSURES(renumbered == live_);
  // Grow the window if the live set fills half of it.
  const auto live = static_cast<std::size_t>(live_);
  if (live * 2 >= window_) {
    window_ = std::bit_ceil(live * 4 + 2);
    std::vector<std::int32_t>().swap(tree_);  // free before growing
  }
  // The tree of live marks at [0, live): node i counts [i - lowbit(i), i).
  tree_.assign(window_ + 1, 0);
  for (std::size_t i = 1; i <= window_; ++i) {
    const std::size_t lo = i - lowbit(i);
    if (lo < live) tree_[i] = static_cast<std::int32_t>(std::min(i, live) - lo);
  }
  cur_ = live;
}

}  // namespace sdlo::cachesim
