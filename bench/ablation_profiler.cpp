// Ablation A1: exact stack distances from the shared RecencyIndex (Fenwick
// over last-access times, the Almasi et al. technique) versus a naive O(n)
// list scan, and versus the plain LRU simulator, in ns/access. The index,
// fed `d = resolve(line); append(line);` per access, is what
// profile_stack_distances runs and what the streamed sweep's hole merge
// resolves holes with; this shows why it, not a list scan, is the
// per-access histogram reference the tests check the sweep engines
// against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <list>
#include <unordered_map>

#include "cachesim/lru_cache.hpp"
#include "cachesim/recency_index.hpp"
#include "support/rng.hpp"

namespace {

using namespace sdlo;

// Naive reference: maintain the LRU stack as a list; depth = scan position.
class NaiveStackProfiler {
 public:
  std::int64_t access(std::uint64_t addr) {
    std::int64_t depth = 0;
    for (auto it = stack_.begin(); it != stack_.end(); ++it) {
      ++depth;
      if (*it == addr) {
        stack_.erase(it);
        stack_.push_front(addr);
        return depth;
      }
    }
    stack_.push_front(addr);
    return 0;
  }

 private:
  std::list<std::uint64_t> stack_;
};

std::vector<std::uint64_t> make_trace(std::size_t n, std::uint64_t range) {
  SplitMix64 rng(7);
  std::vector<std::uint64_t> t(n);
  for (auto& a : t) a = rng.below(range);
  return t;
}

void BM_RecencyIndex(benchmark::State& state) {
  const auto trace = make_trace(1 << 16,
                                static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    cachesim::RecencyIndex index(static_cast<std::uint64_t>(state.range(0)));
    std::uint64_t acc = 0;
    for (auto a : trace) {
      acc += index.resolve(a);
      index.append(a);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_RecencyIndex)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_NaiveProfiler(benchmark::State& state) {
  const auto trace = make_trace(1 << 13,
                                static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    NaiveStackProfiler p;
    std::int64_t acc = 0;
    for (auto a : trace) acc += p.access(a);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_NaiveProfiler)->Arg(1 << 8)->Arg(1 << 12);

void BM_LruCacheSingleCapacity(benchmark::State& state) {
  const auto trace = make_trace(1 << 16,
                                static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    cachesim::LruCache c(state.range(0) / 2 + 1,
                         static_cast<std::uint64_t>(state.range(0)));
    for (auto a : trace) benchmark::DoNotOptimize(c.access(a));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_LruCacheSingleCapacity)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
