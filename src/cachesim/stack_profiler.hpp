// Exact LRU stack-distance profiler: the per-access reference.
//
// Computes, for every access of a trace, its LRU stack depth (the number of
// distinct addresses touched since the previous access to the same address,
// inclusive), and accumulates a depth histogram. One pass over the trace
// then yields the miss count of a fully-associative LRU cache of *any*
// capacity: an access hits iff depth <= capacity, so
//   misses(C) = cold + sum_{d > C} hist[d].
//
// This is the efficient stack-distance computation of Almasi, Cascaval &
// Padua [ref 3 of the paper]: a Fenwick tree over access times marks, for
// each currently-resident address, its most recent access time; the depth of
// an access is a suffix count, and each access moves one mark. Times are
// periodically renumbered (compacted) so the tree stays proportional to the
// number of distinct addresses rather than the trace length.
//
// Every access goes through access(): there is no bulk accounting, so the
// profiler shares no shortcut with the engines it checks. The caller states
// an exclusive bound on the addresses it feeds (trace addresses are dense
// element/line indices), and the last-access map is one direct-indexed
// vector of that size.
//
// With per-site tracking enabled (enable_site_tracking), the profiler
// additionally keeps one depth histogram per access site, so the same walk
// also answers misses_by_site(C) for every capacity.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cachesim/results.hpp"

namespace sdlo::cachesim {

/// Streaming exact stack-distance histogram.
class StackDistanceProfiler {
 public:
  /// Every fed address must be < `addr_limit`; the last-access table and
  /// the Fenwick window are sized from it.
  explicit StackDistanceProfiler(std::uint64_t addr_limit);

  /// Allocates per-site histograms for sites [0, num_sites); from now on
  /// access(addr, site) records into them.
  void enable_site_tracking(std::int32_t num_sites);

  /// Feeds one access; returns its stack depth, or 0 for a cold (first)
  /// access.
  std::int64_t access(std::uint64_t addr);

  /// Feeds one access attributed to `site` (requires enable_site_tracking).
  std::int64_t access(std::uint64_t addr, std::int32_t site);

  /// Number of cold (compulsory) first accesses.
  std::uint64_t cold_accesses() const { return cold_; }

  /// Total accesses fed.
  std::uint64_t total_accesses() const { return total_; }

  /// Depth histogram: depth -> number of accesses with that depth (cold
  /// accesses excluded; they are counted by cold_accesses()).
  const std::map<std::int64_t, std::uint64_t>& histogram() const {
    return hist_;
  }

  /// Misses of a fully-associative LRU cache with `capacity` elements.
  std::uint64_t misses(std::int64_t capacity) const;

  /// Everything recorded so far as a ProfileResult over lines of
  /// `line_elems` elements, per-site breakdowns included.
  ProfileResult result(std::int64_t line_elems) const;

  /// Distinct addresses seen so far.
  std::uint64_t distinct_addresses() const { return distinct_; }

 private:
  std::int64_t prefix_sum(std::size_t pos) const;   // sum of marks [0, pos]
  void bit_update(std::size_t pos, int delta);
  void compact();

  std::vector<std::int32_t> tree_;                  // Fenwick array
  std::size_t window_ = 0;                          // tree capacity
  std::size_t cur_ = 0;                             // next time stamp
  std::vector<std::uint64_t> last_pos_;             // addr -> time, or kNoPos
  std::uint64_t distinct_ = 0;                      // marks in tree
  std::map<std::int64_t, std::uint64_t> hist_;
  std::vector<std::map<std::int64_t, std::uint64_t>> site_hist_;
  std::vector<std::uint64_t> site_cold_;
  std::uint64_t cold_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace sdlo::cachesim
