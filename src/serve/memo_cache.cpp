#include "serve/memo_cache.hpp"

namespace sdlo::serve {

std::optional<std::string> MemoCache::lookup(const std::string& key) {
  std::lock_guard lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->payload;
}

void MemoCache::insert(const std::string& key, std::string payload) {
  std::lock_guard lk(mu_);
  if (max_entries_ == 0) return;
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->payload = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(payload)});
  index_.emplace(lru_.front().key, lru_.begin());
  ++stats_.insertions;
  if (lru_.size() > max_entries_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

MemoCache::Stats MemoCache::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::size_t MemoCache::size() const {
  std::lock_guard lk(mu_);
  return lru_.size();
}

}  // namespace sdlo::serve
