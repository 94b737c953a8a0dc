#include "cachesim/lru_cache.hpp"

#include "support/check.hpp"

namespace sdlo::cachesim {

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
  node_of_.assign(static_cast<std::size_t>(addr_limit), -1);
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

}  // namespace sdlo::cachesim
