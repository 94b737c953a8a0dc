// Set-associative cache simulator.
//
// The paper's model assumes full associativity and relies on tile copying to
// suppress conflict misses (§7.1). This simulator quantifies that claim: it
// models a W-way set-associative cache with a configurable line size and
// LRU replacement within each set, so benches can measure how far a real
// cache geometry deviates from the fully-associative model.
#pragma once

#include <cstdint>
#include <vector>

namespace sdlo::cachesim {

/// W-way set-associative cache over element addresses.
class SetAssocCache {
 public:
  /// `capacity_elems` total elements, split into sets of `ways` lines of
  /// `line_elems` elements each. capacity must be divisible by
  /// ways*line_elems; line_elems must be a power of two.
  SetAssocCache(std::int64_t capacity_elems, int ways,
                std::int64_t line_elems);

  /// Touches the element at `addr`; returns true on hit.
  bool access(std::uint64_t addr);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t stamp = 0;  // last use
  };

  std::int64_t num_sets_;
  int ways_;
  std::int64_t line_elems_;
  int line_shift_;
  std::vector<Line> lines_;  // num_sets * ways
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sdlo::cachesim
