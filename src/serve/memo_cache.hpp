// Result memo cache of the serve daemon (DESIGN.md §16).
//
// Keyed by the full request key string: the request configuration (verb,
// bindings, capacity, flags) followed by the *canonicalized* program text
// (the parser → printer round trip erases formatting, so two textually
// different programs with one structure share an entry). The index is a
// hash table over that exact string, so a lookup only hits on exact key
// equality — it can never serve another request's bytes. Hits return the
// stored payload verbatim, so a cached response is bit-identical to the
// first one (and to the equivalent CLI invocation, which the fuzz `serve`
// oracle enforces).
//
// Bounded LRU: `max_entries` entries, least-recently-used evicted first.
// Thread-safe; every operation takes one mutex (the payloads are small
// JSON documents, so copying under the lock beats reference-counting
// schemes here).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace sdlo::serve {

class MemoCache {
 public:
  /// `max_entries` == 0 disables caching (every lookup misses).
  explicit MemoCache(std::size_t max_entries) : max_entries_(max_entries) {}

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// The stored payload when `key` is present.
  std::optional<std::string> lookup(const std::string& key);

  /// Stores key → payload, evicting the LRU entry when full. Re-inserting
  /// an existing key refreshes its payload and recency.
  void insert(const std::string& key, std::string payload);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Stats stats() const;
  std::size_t size() const;

 private:
  struct Entry {
    std::string key;
    std::string payload;
  };
  // Recency list, most-recent first; the index views each node's key (list
  // nodes never move, so the views stay valid until the node is erased).
  using List = std::list<Entry>;

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  List lru_;
  std::unordered_map<std::string_view, List::iterator> index_;
  Stats stats_;
};

}  // namespace sdlo::serve
