#include "cachesim/stack_profiler.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/check.hpp"

namespace sdlo::cachesim {

namespace {
constexpr std::uint64_t kNoPos = std::numeric_limits<std::uint64_t>::max();
}  // namespace

StackDistanceProfiler::StackDistanceProfiler(std::uint64_t addr_limit) {
  window_ = std::max<std::size_t>(
      std::bit_ceil(static_cast<std::size_t>(addr_limit) * 2 + 2), 1 << 10);
  tree_.assign(window_ + 1, 0);
  last_pos_.assign(static_cast<std::size_t>(addr_limit), kNoPos);
}

void StackDistanceProfiler::bit_update(std::size_t pos, int delta) {
  for (std::size_t i = pos + 1; i <= window_; i += i & (~i + 1)) {
    tree_[i] += delta;
  }
}

std::int64_t StackDistanceProfiler::prefix_sum(std::size_t pos) const {
  std::int64_t s = 0;
  for (std::size_t i = pos + 1; i > 0; i -= i & (~i + 1)) {
    s += tree_[i];
  }
  return s;
}

void StackDistanceProfiler::compact() {
  // Renumber active times to 0..n-1 preserving order; grow the window if
  // the active set uses more than half of it.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_time;
  by_time.reserve(static_cast<std::size_t>(distinct_));
  for (std::size_t addr = 0; addr < last_pos_.size(); ++addr) {
    if (last_pos_[addr] != kNoPos) by_time.emplace_back(last_pos_[addr], addr);
  }
  std::sort(by_time.begin(), by_time.end());

  if (by_time.size() * 2 >= window_) {
    window_ = std::bit_ceil(by_time.size() * 4 + 2);
  }
  tree_.assign(window_ + 1, 0);
  for (std::size_t i = 0; i < by_time.size(); ++i) {
    last_pos_[by_time[i].second] = i;
    bit_update(i, +1);
  }
  cur_ = by_time.size();
  SDLO_ENSURES(distinct_ == by_time.size());
}

std::int64_t StackDistanceProfiler::access(std::uint64_t addr) {
  SDLO_EXPECTS(addr < last_pos_.size());
  if (cur_ >= window_) compact();
  ++total_;
  const std::uint64_t prev = last_pos_[addr];
  std::int64_t depth = 0;
  if (prev == kNoPos) {
    ++cold_;
    ++distinct_;
  } else {
    // Depth = number of marks in [prev, cur), which includes addr's own.
    depth = static_cast<std::int64_t>(distinct_) -
            (prev == 0 ? 0 : prefix_sum(static_cast<std::size_t>(prev - 1)));
    bit_update(static_cast<std::size_t>(prev), -1);
    ++hist_[depth];
  }
  last_pos_[addr] = cur_;
  bit_update(cur_, +1);
  ++cur_;
  return depth;
}

void StackDistanceProfiler::enable_site_tracking(std::int32_t num_sites) {
  SDLO_EXPECTS(num_sites >= 0);
  site_hist_.resize(static_cast<std::size_t>(num_sites));
  site_cold_.resize(static_cast<std::size_t>(num_sites), 0);
}

std::int64_t StackDistanceProfiler::access(std::uint64_t addr,
                                           std::int32_t site) {
  SDLO_EXPECTS(site >= 0 &&
               static_cast<std::size_t>(site) < site_hist_.size());
  const std::int64_t depth = access(addr);
  if (depth == 0) {
    ++site_cold_[static_cast<std::size_t>(site)];
  } else {
    ++site_hist_[static_cast<std::size_t>(site)][depth];
  }
  return depth;
}

std::uint64_t StackDistanceProfiler::misses(std::int64_t capacity) const {
  SDLO_EXPECTS(capacity > 0);
  return misses_from_histogram(hist_, cold_, capacity);
}

ProfileResult StackDistanceProfiler::result(std::int64_t line_elems) const {
  ProfileResult r;
  r.accesses = total_;
  r.cold = cold_;
  r.line_elems = line_elems;
  r.histogram = hist_;
  r.cold_by_site = site_cold_;
  r.histogram_by_site = site_hist_;
  return r;
}

}  // namespace sdlo::cachesim
