// Exact LRU stack-distance profiler.
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
// When the caller knows an exclusive upper bound on the addresses it will
// feed (trace addresses are dense element/line indices), the last-access
// map is a direct-indexed vector sized once up front; otherwise it falls
// back to hashing. Run-compressed callers can additionally account whole
// blocks of provably-equal depths with record_repeats(), skipping the
// Fenwick work entirely.
//
// With per-site tracking enabled (enable_site_tracking), the profiler
// additionally keeps one depth histogram per access site, so the same walk
// also answers misses_by_site(C) for every capacity — the per-partition
// breakdown the validation tables need.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "cachesim/results.hpp"

namespace sdlo::cachesim {

/// Streaming exact stack-distance histogram.
class StackDistanceProfiler {
 public:
  /// `expected_addresses` sizes the internal tables (a hint; the structure
  /// grows as needed). `addr_limit`, when nonzero, promises every fed
  /// address is < addr_limit and switches the last-access map to a dense
  /// direct-indexed table.
  explicit StackDistanceProfiler(std::size_t expected_addresses = 1 << 16,
                                 std::uint64_t addr_limit = 0);

  /// Allocates per-site histograms for sites [0, num_sites); from now on
  /// access(addr, site) records into them.
  void enable_site_tracking(std::int32_t num_sites);

  /// Feeds one access; returns its stack depth, or 0 for a cold (first)
  /// access.
  std::int64_t access(std::uint64_t addr);

  /// Feeds one access attributed to `site` (requires enable_site_tracking).
  std::int64_t access(std::uint64_t addr, std::int32_t site);

  /// Bulk-accounts `n` further accesses of stack depth `depth` (>= 1)
  /// without touching the Fenwick state. Exact only when the caller proves
  /// the depths: the canonical uses are same-address repeats (depth 1 —
  /// nothing else intervenes, so the mark need not move) and steady-state
  /// iterations of a pinned run group, where every resident mark already
  /// sits in the final relative order and only timestamps would change.
  /// `site` < 0 skips per-site attribution.
  void record_repeats(std::int64_t depth, std::uint64_t n,
                      std::int32_t site = -1);

  /// Number of cold (compulsory) first accesses.
  std::uint64_t cold_accesses() const { return cold_; }

  /// Total accesses fed.
  std::uint64_t total_accesses() const { return total_; }

  /// Depth histogram: depth -> number of accesses with that depth (cold
  /// accesses excluded; they are counted by cold_accesses()).
  const std::map<std::int64_t, std::uint64_t>& histogram() const;

  /// Misses of a fully-associative LRU cache with `capacity` elements.
  std::uint64_t misses(std::int64_t capacity) const;

  /// Per-site depth histogram (requires enable_site_tracking).
  const std::map<std::int64_t, std::uint64_t>& site_histogram(
      std::int32_t site) const;

  /// Per-site cold accesses (requires enable_site_tracking).
  std::uint64_t site_cold(std::int32_t site) const;

  /// Number of sites registered by enable_site_tracking (0 if disabled).
  std::int32_t num_sites() const {
    return static_cast<std::int32_t>(site_hist_.size());
  }

  /// Everything recorded so far as a ProfileResult over lines of
  /// `line_elems` elements, per-site breakdowns included.
  ProfileResult result(std::int64_t line_elems,
                       Completeness completeness) const;

  /// Distinct addresses seen so far.
  std::uint64_t distinct_addresses() const {
    return dense_last_pos_.empty() ? last_pos_.size() : distinct_;
  }

 private:
  std::int64_t prefix_sum(std::size_t pos) const;   // sum of marks [0, pos]
  void bit_update(std::size_t pos, int delta);
  void compact();
  std::int64_t record_depth(std::uint64_t prev);    // move mark, hist entry

  std::vector<std::int32_t> tree_;                  // Fenwick array
  std::size_t window_ = 0;                          // tree capacity
  std::size_t cur_ = 0;                             // next time stamp
  std::int64_t active_ = 0;                         // marks in tree
  std::unordered_map<std::uint64_t, std::uint64_t> last_pos_;
  std::vector<std::uint64_t> dense_last_pos_;       // addr -> time, or kNoPos
  std::uint64_t distinct_ = 0;                      // dense-mode population
  mutable std::map<std::int64_t, std::uint64_t> hist_;
  std::vector<std::map<std::int64_t, std::uint64_t>> site_hist_;
  std::vector<std::uint64_t> site_cold_;
  std::uint64_t cold_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace sdlo::cachesim
