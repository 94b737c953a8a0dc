#include "cachesim/stack_profiler.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/check.hpp"

namespace sdlo::cachesim {

namespace {
constexpr std::uint64_t kNoPos = std::numeric_limits<std::uint64_t>::max();
}  // namespace

StackDistanceProfiler::StackDistanceProfiler(std::size_t expected_addresses,
                                             std::uint64_t addr_limit) {
  window_ = std::max<std::size_t>(
      std::bit_ceil(expected_addresses * 2 + 2), 1 << 10);
  tree_.assign(window_ + 1, 0);
  if (addr_limit > 0) {
    dense_last_pos_.assign(static_cast<std::size_t>(addr_limit), kNoPos);
  } else {
    last_pos_.reserve(expected_addresses * 2);
  }
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
  by_time.reserve(static_cast<std::size_t>(distinct_addresses()));
  if (dense_last_pos_.empty()) {
    for (const auto& [addr, pos] : last_pos_) by_time.emplace_back(pos, addr);
  } else {
    for (std::size_t addr = 0; addr < dense_last_pos_.size(); ++addr) {
      if (dense_last_pos_[addr] != kNoPos) {
        by_time.emplace_back(dense_last_pos_[addr], addr);
      }
    }
  }
  std::sort(by_time.begin(), by_time.end());

  if (by_time.size() * 2 >= window_) {
    window_ = std::bit_ceil(by_time.size() * 4 + 2);
  }
  tree_.assign(window_ + 1, 0);
  for (std::size_t i = 0; i < by_time.size(); ++i) {
    if (dense_last_pos_.empty()) {
      last_pos_[by_time[i].second] = i;
    } else {
      dense_last_pos_[by_time[i].second] = i;
    }
    bit_update(i, +1);
  }
  cur_ = by_time.size();
  SDLO_ENSURES(static_cast<std::size_t>(active_) == by_time.size());
}

std::int64_t StackDistanceProfiler::record_depth(std::uint64_t prev) {
  // Depth = number of marks in [prev, cur), which includes addr's own mark.
  const std::int64_t depth =
      active_ - (prev == 0 ? 0 : prefix_sum(prev - 1));
  bit_update(prev, -1);
  bit_update(cur_, +1);
  ++cur_;
  ++hist_[depth];
  return depth;
}

std::int64_t StackDistanceProfiler::access(std::uint64_t addr) {
  if (cur_ >= window_) compact();
  ++total_;
  if (!dense_last_pos_.empty()) {
    SDLO_EXPECTS(addr < dense_last_pos_.size());
    const std::uint64_t prev = dense_last_pos_[addr];
    if (prev == kNoPos) {
      ++cold_;
      dense_last_pos_[addr] = cur_;
      bit_update(cur_, +1);
      ++cur_;
      ++active_;
      ++distinct_;
      return 0;
    }
    dense_last_pos_[addr] = cur_;
    return record_depth(prev);
  }
  auto it = last_pos_.find(addr);
  if (it == last_pos_.end()) {
    ++cold_;
    last_pos_.emplace(addr, cur_);
    bit_update(cur_, +1);
    ++cur_;
    ++active_;
    return 0;
  }
  const std::uint64_t prev = it->second;
  it->second = cur_;
  return record_depth(prev);
}

void StackDistanceProfiler::record_repeats(std::int64_t depth,
                                           std::uint64_t n,
                                           std::int32_t site) {
  SDLO_EXPECTS(depth >= 1);
  if (n == 0) return;
  total_ += n;
  hist_[depth] += n;
  if (site >= 0) {
    SDLO_EXPECTS(static_cast<std::size_t>(site) < site_hist_.size());
    site_hist_[static_cast<std::size_t>(site)][depth] += n;
  }
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

const std::map<std::int64_t, std::uint64_t>&
StackDistanceProfiler::histogram() const {
  return hist_;
}

std::uint64_t StackDistanceProfiler::misses(std::int64_t capacity) const {
  SDLO_EXPECTS(capacity > 0);
  return misses_from_histogram(hist_, cold_, capacity);
}

const std::map<std::int64_t, std::uint64_t>&
StackDistanceProfiler::site_histogram(std::int32_t site) const {
  SDLO_EXPECTS(site >= 0 &&
               static_cast<std::size_t>(site) < site_hist_.size());
  return site_hist_[static_cast<std::size_t>(site)];
}

std::uint64_t StackDistanceProfiler::site_cold(std::int32_t site) const {
  SDLO_EXPECTS(site >= 0 &&
               static_cast<std::size_t>(site) < site_cold_.size());
  return site_cold_[static_cast<std::size_t>(site)];
}

ProfileResult StackDistanceProfiler::result(
    std::int64_t line_elems, Completeness completeness) const {
  ProfileResult r;
  r.completeness = completeness;
  r.accesses = total_;
  r.cold = cold_;
  r.line_elems = line_elems;
  r.histogram = histogram();
  r.cold_by_site = site_cold_;
  r.histogram_by_site = site_hist_;
  return r;
}

}  // namespace sdlo::cachesim
