// Fully-associative LRU cache simulator.
//
// This is the reference model of the paper's evaluation: SimpleScalar
// sim-cache configured fully associative with LRU replacement (§5.2, §7.1 —
// tile copying makes real caches behave like this). Capacity is measured in
// elements; an access either hits or misses and then becomes most recently
// used.
//
// Implementation: a direct-indexed address-to-slot table plus an intrusive
// doubly-linked list over a slot arena — O(1) per access with no
// per-access allocation, so paper-scale traces (3e8 accesses) simulate in
// seconds. Trace addresses are dense element/line indices, so the caller
// always knows an exclusive upper bound on them, and the table is sized
// once up front.
#pragma once

#include <cstdint>
#include <vector>

namespace sdlo::cachesim {

/// Fully-associative LRU cache over element addresses.
class LruCache {
 public:
  /// `capacity` = number of elements the cache holds (> 0). Every accessed
  /// address must be < `addr_limit`.
  LruCache(std::int64_t capacity, std::uint64_t addr_limit);

  /// Touches `addr`; returns true on hit. On miss the address is inserted
  /// (evicting the LRU element if full).
  bool access(std::uint64_t addr);

  std::int64_t size() const { return size_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }

 private:
  struct Node {
    std::uint64_t addr = 0;
    std::int32_t prev = -1;
    std::int32_t next = -1;
  };

  void unlink(std::int32_t n);
  void push_front(std::int32_t n);

  std::int64_t capacity_;
  std::int64_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  std::vector<Node> nodes_;         // arena, size == capacity
  std::int32_t head_ = -1;          // MRU
  std::int32_t tail_ = -1;          // LRU
  std::int32_t free_head_ = -1;     // free slot chain (reuses .next)

  std::vector<std::int32_t> node_of_;  // addr -> node index, -1 empty
};

}  // namespace sdlo::cachesim
