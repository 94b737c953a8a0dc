// Fully-associative LRU cache simulator.
//
// This is the reference model of the paper's evaluation: SimpleScalar
// sim-cache configured fully associative with LRU replacement (§5.2, §7.1 —
// tile copying makes real caches behave like this). Capacity is measured in
// elements; an access either hits or misses and then becomes most recently
// used.
//
// Implementation: an address-to-slot map plus an intrusive doubly-linked
// list over a slot arena — O(1) per access with no per-access allocation,
// so paper-scale traces (3e8 accesses) simulate in seconds. When the caller
// knows an exclusive upper bound on the addresses it will feed (trace
// addresses are dense element/line indices), the map is a direct-indexed
// vector sized once up front; otherwise it falls back to open-addressing
// hashing.
#pragma once

#include <cstdint>
#include <vector>

namespace sdlo::cachesim {

/// Fully-associative LRU cache over element addresses.
class LruCache {
 public:
  /// `capacity` = number of elements the cache holds (> 0). `addr_limit`,
  /// when nonzero, promises every accessed address is < addr_limit and
  /// switches the address map to a dense direct-indexed table.
  explicit LruCache(std::int64_t capacity, std::uint64_t addr_limit = 0);

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

  // Hash-map helpers (linear probing over slot indices; kEmpty = -1). Used
  // only when the cache was built without an address limit.
  std::int32_t find_slot(std::uint64_t addr) const;
  void map_insert(std::uint64_t addr, std::int32_t node);
  void map_erase(std::uint64_t addr);
  void unlink(std::int32_t n);
  void push_front(std::int32_t n);
  bool access_hashed(std::uint64_t addr);

  std::int64_t capacity_;
  std::int64_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  std::vector<Node> nodes_;         // arena, size == capacity
  std::int32_t head_ = -1;          // MRU
  std::int32_t tail_ = -1;          // LRU
  std::int32_t free_head_ = -1;     // free slot chain (reuses .next)

  std::vector<std::int32_t> node_of_;  // dense addr -> node index, -1 empty

  std::vector<std::uint64_t> keys_;  // hash table keys
  std::vector<std::int32_t> vals_;   // hash table values (node index)
  std::uint64_t mask_ = 0;
};

}  // namespace sdlo::cachesim
