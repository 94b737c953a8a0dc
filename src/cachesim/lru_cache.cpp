#include "cachesim/lru_cache.hpp"

#include <bit>
#include <limits>

#include "support/check.hpp"

namespace sdlo::cachesim {

namespace {

constexpr std::uint64_t kEmptyKey = std::numeric_limits<std::uint64_t>::max();

std::uint64_t hash_addr(std::uint64_t x) {
  // Fibonacci-style mixing; addresses are small dense integers.
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

LruCache::LruCache(std::int64_t capacity, std::uint64_t addr_limit)
    : capacity_(capacity) {
  SDLO_EXPECTS(capacity > 0);
  SDLO_EXPECTS(capacity < (std::int64_t{1} << 31));
  nodes_.resize(static_cast<std::size_t>(capacity));
  // Free chain over the arena.
  for (std::int32_t i = 0; i < capacity; ++i) {
    nodes_[static_cast<std::size_t>(i)].next =
        (i + 1 < capacity) ? i + 1 : -1;
  }
  free_head_ = 0;
  if (addr_limit > 0) {
    node_of_.assign(static_cast<std::size_t>(addr_limit), -1);
  } else {
    const auto table =
        std::bit_ceil(static_cast<std::uint64_t>(capacity) * 2 + 1);
    keys_.assign(table, kEmptyKey);
    vals_.assign(table, -1);
    mask_ = table - 1;
  }
}

std::int32_t LruCache::find_slot(std::uint64_t addr) const {
  std::uint64_t i = hash_addr(addr) & mask_;
  while (keys_[i] != kEmptyKey) {
    if (keys_[i] == addr) return static_cast<std::int32_t>(i);
    i = (i + 1) & mask_;
  }
  return -1;
}

void LruCache::map_insert(std::uint64_t addr, std::int32_t node) {
  std::uint64_t i = hash_addr(addr) & mask_;
  while (keys_[i] != kEmptyKey) i = (i + 1) & mask_;
  keys_[i] = addr;
  vals_[i] = node;
}

void LruCache::map_erase(std::uint64_t addr) {
  std::uint64_t i = hash_addr(addr) & mask_;
  while (keys_[i] != addr) {
    SDLO_CHECK(keys_[i] != kEmptyKey, "map_erase: address not present");
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion keeps probe chains intact without tombstones.
  std::uint64_t hole = i;
  std::uint64_t j = i;
  for (;;) {
    j = (j + 1) & mask_;
    if (keys_[j] == kEmptyKey) break;
    const std::uint64_t home = hash_addr(keys_[j]) & mask_;
    // Can keys_[j] legally move into `hole`? Yes iff `hole` lies cyclically
    // within [home, j].
    const bool movable =
        (hole >= home && hole < j) ||
        (home > j && (hole >= home || hole < j));
    if (movable) {
      keys_[hole] = keys_[j];
      vals_[hole] = vals_[j];
      hole = j;
    }
  }
  keys_[hole] = kEmptyKey;
}

void LruCache::unlink(std::int32_t n) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  if (node.prev != -1) {
    nodes_[static_cast<std::size_t>(node.prev)].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != -1) {
    nodes_[static_cast<std::size_t>(node.next)].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void LruCache::push_front(std::int32_t n) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  node.prev = -1;
  node.next = head_;
  if (head_ != -1) nodes_[static_cast<std::size_t>(head_)].prev = n;
  head_ = n;
  if (tail_ == -1) tail_ = n;
}

bool LruCache::access(std::uint64_t addr) {
  if (node_of_.empty()) return access_hashed(addr);
  SDLO_EXPECTS(addr < node_of_.size());
  const std::int32_t hit = node_of_[addr];
  if (hit >= 0) {
    ++hits_;
    if (head_ != hit) {
      unlink(hit);
      push_front(hit);
    }
    return true;
  }
  ++misses_;
  std::int32_t n;
  if (size_ < capacity_) {
    n = free_head_;
    free_head_ = nodes_[static_cast<std::size_t>(n)].next;
    ++size_;
  } else {
    n = tail_;
    unlink(n);
    node_of_[nodes_[static_cast<std::size_t>(n)].addr] = -1;
  }
  nodes_[static_cast<std::size_t>(n)].addr = addr;
  push_front(n);
  node_of_[addr] = n;
  return false;
}

bool LruCache::access_hashed(std::uint64_t addr) {
  const std::int32_t slot = find_slot(addr);
  if (slot != -1) {
    ++hits_;
    const std::int32_t n = vals_[static_cast<std::uint64_t>(slot)];
    if (head_ != n) {
      unlink(n);
      push_front(n);
    }
    return true;
  }
  ++misses_;
  std::int32_t n;
  if (size_ < capacity_) {
    n = free_head_;
    free_head_ = nodes_[static_cast<std::size_t>(n)].next;
    ++size_;
  } else {
    n = tail_;
    unlink(n);
    map_erase(nodes_[static_cast<std::size_t>(n)].addr);
  }
  nodes_[static_cast<std::size_t>(n)].addr = addr;
  push_front(n);
  map_insert(addr, n);
  return false;
}

}  // namespace sdlo::cachesim
