// Unit + property tests for the cache simulators and the recency index
// behind the exact stack-distance profile.
#include "support/check.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "cachesim/lru_cache.hpp"
#include "cachesim/set_assoc_cache.hpp"
#include "cachesim/sim.hpp"
#include "cachesim/recency_index.hpp"
#include "ir/gallery.hpp"
#include "support/rng.hpp"
#include "trace/walker.hpp"

namespace sdlo::cachesim {
namespace {

TEST(LruCache, BasicHitMiss) {
  LruCache c(2, 4);
  EXPECT_FALSE(c.access(1));
  EXPECT_FALSE(c.access(2));
  EXPECT_TRUE(c.access(1));   // 1 is resident
  EXPECT_FALSE(c.access(3));  // evicts 2 (LRU)
  EXPECT_TRUE(c.access(1));
  EXPECT_FALSE(c.access(2));  // 2 was evicted
  EXPECT_EQ(c.misses(), 4u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(LruCache, CapacityOne) {
  LruCache c(1, 9);
  EXPECT_FALSE(c.access(7));
  EXPECT_TRUE(c.access(7));
  EXPECT_FALSE(c.access(8));
  EXPECT_FALSE(c.access(7));
  EXPECT_EQ(c.size(), 1);
}

// Reference LRU built on std::list + unordered_map, for differential
// testing of the arena implementation.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::int64_t cap) : cap_(cap) {}
  bool access(std::uint64_t addr) {
    auto it = map_.find(addr);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (static_cast<std::int64_t>(map_.size()) == cap_) {
      map_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(addr);
    map_[addr] = order_.begin();
    return false;
  }

 private:
  std::int64_t cap_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
};

// One access of profile_stack_distances: the access's LRU stack depth, 0
// when cold.
std::int64_t depth_of(RecencyIndex& index, std::uint64_t line) {
  const auto depth = static_cast<std::int64_t>(index.resolve(line));
  index.append(line);
  return depth;
}

// Naive LRU stack, most recent first: the depth is the scan position.
class NaiveStack {
 public:
  std::int64_t access(std::uint64_t line) {
    const auto it = std::find(stack_.begin(), stack_.end(), line);
    std::int64_t depth = 0;
    if (it != stack_.end()) {
      depth = it - stack_.begin() + 1;
      stack_.erase(it);
    }
    stack_.insert(stack_.begin(), line);
    return depth;
  }

 private:
  std::vector<std::uint64_t> stack_;
};

class LruDifferentialTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LruDifferentialTest, MatchesReferenceOnRandomTraces) {
  const auto [cap, range] = GetParam();
  LruCache fast(cap, static_cast<std::uint64_t>(range));
  ReferenceLru ref(cap);
  RecencyIndex index(static_cast<std::uint64_t>(range));
  std::map<std::int64_t, std::uint64_t> hist;
  std::uint64_t cold = 0;
  SplitMix64 rng(static_cast<std::uint64_t>(cap * 7919 + range));
  std::uint64_t index_misses = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto addr = rng.below(static_cast<std::uint64_t>(range));
    const bool hit_fast = fast.access(addr);
    const bool hit_ref = ref.access(addr);
    ASSERT_EQ(hit_fast, hit_ref) << "step " << i;
    // Index agreement: hit iff depth in [1, cap].
    const auto depth = depth_of(index, addr);
    const bool hit_index = depth != 0 && depth <= cap;
    ASSERT_EQ(hit_fast, hit_index) << "step " << i;
    if (!hit_index) ++index_misses;
    if (depth == 0) {
      ++cold;
    } else {
      ++hist[depth];
    }
  }
  EXPECT_EQ(fast.misses(), index_misses);
  EXPECT_EQ(misses_from_histogram(hist, cold, cap), fast.misses());
}

INSTANTIATE_TEST_SUITE_P(
    CapRange, LruDifferentialTest,
    ::testing::Values(std::pair{1, 4}, std::pair{2, 8}, std::pair{7, 16},
                      std::pair{16, 16}, std::pair{32, 1024},
                      std::pair{255, 4096}, std::pair{1024, 700}));

TEST(StackProfiler, DepthsAreExact) {
  RecencyIndex index(16);
  EXPECT_EQ(depth_of(index, 10), 0);  // cold
  EXPECT_EQ(depth_of(index, 11), 0);
  EXPECT_EQ(depth_of(index, 10), 2);  // {11, 10}
  EXPECT_EQ(depth_of(index, 10), 1);  // immediate reuse
  EXPECT_EQ(depth_of(index, 12), 0);
  EXPECT_EQ(depth_of(index, 11), 3);  // {12, 10, 11}
  // Oldest first the live lines are 10, 12, 11; resolve counts the live
  // timestamps at or after the line's own and removes the line.
  EXPECT_EQ(index.resolve(12), 2u);  // {12, 11}
  EXPECT_EQ(index.resolve(12), 0u);  // absent now
  EXPECT_EQ(index.resolve(10), 2u);  // {10, 11}
}

TEST(StackProfiler, HistogramAndMisses) {
  RecencyIndex index(16);
  std::map<std::int64_t, std::uint64_t> hist;
  std::uint64_t cold = 0;
  // a b a b a b -> depths: 0 0 2 2 2 2
  for (int i = 0; i < 3; ++i) {
    for (const std::uint64_t line : {1u, 2u}) {
      const std::int64_t depth = depth_of(index, line);
      if (depth == 0) {
        ++cold;
      } else {
        ++hist[depth];
      }
    }
  }
  EXPECT_EQ(cold, 2u);
  EXPECT_EQ(hist.at(2), 4u);
  EXPECT_EQ(misses_from_histogram(hist, cold, 1), 2u + 4u);  // cold + all
  EXPECT_EQ(misses_from_histogram(hist, cold, 2), 2u);
  EXPECT_EQ(misses_from_histogram(hist, cold, 100), 2u);
}

TEST(StackProfiler, CompactionPreservesDepths) {
  // 2000 lines: the window starts at 1024 timestamps; the first compaction
  // finds ~800 live and grows it to bit_ceil(4 * live + 2) = 4096. With all
  // 2000 live it then compacts about every 2100 accesses — some 45 times in
  // this run — renumbering every live line.
  RecencyIndex index(2000);
  NaiveStack naive;
  SplitMix64 rng(99);
  for (int i = 0; i < 100000; ++i) {
    const auto line = rng.below(2000);
    ASSERT_EQ(depth_of(index, line), naive.access(line)) << i;
  }
  EXPECT_EQ(index.window(), 4096u);
}

TEST(StackProfiler, WindowFloorScalesWithTheTable) {
  // A compaction scans the whole last-access table, so the first window
  // grows with it: cycling over a few lines of a large index compacts
  // once per table/16 appends, not once per 1024.
  EXPECT_EQ(RecencyIndex(16).window(), 1024u);
  EXPECT_EQ(RecencyIndex(std::uint64_t{1} << 14).window(), 1024u);
  RecencyIndex index(std::uint64_t{1} << 20);
  EXPECT_EQ(index.window(), std::size_t{1} << 16);
  NaiveStack naive;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const std::uint64_t line = (i % 16) << 16;
    ASSERT_EQ(depth_of(index, line), naive.access(line)) << i;
  }
  EXPECT_EQ(index.window(), std::size_t{1} << 16);
}

TEST(StackProfiler, MergePatternMatchesListScan) {
  // The streamed sweep's hole merge: each chunk first resolves its holes
  // (first touches, in program order) without re-appending them, then
  // appends its resident lines in recency order. Chunk c touches 250 new
  // lines and 150 random older ones, so the live set grows to 15000 lines
  // and the window grows from 1024 at least three times.
  constexpr std::uint64_t kLines = 15000;
  RecencyIndex index(kLines);
  std::vector<std::uint64_t> live;  // naive list, oldest first
  SplitMix64 rng(7);
  std::vector<std::size_t> windows = {index.window()};
  for (std::uint64_t c = 0; c < 60; ++c) {
    std::vector<std::uint64_t> chunk;
    for (std::uint64_t l = 250 * c; l < 250 * (c + 1); ++l) chunk.push_back(l);
    for (int i = 0; i < 150 && c > 0; ++i) chunk.push_back(rng.below(250 * c));
    for (std::size_t i = chunk.size(); i > 1; --i) {
      std::swap(chunk[i - 1], chunk[rng.below(i)]);
    }
    std::vector<std::uint64_t> recency;  // distinct lines, oldest first
    for (const std::uint64_t l : chunk) {
      const auto seen = std::find(recency.begin(), recency.end(), l);
      if (seen == recency.end()) {
        // A hole: live timestamps at or after the line's own, or 0.
        const auto it = std::find(live.begin(), live.end(), l);
        std::uint64_t expect = 0;
        if (it != live.end()) {
          expect = static_cast<std::uint64_t>(live.end() - it);
          live.erase(it);
        }
        ASSERT_EQ(index.resolve(l), expect) << "chunk " << c << " line " << l;
      } else {
        recency.erase(seen);
      }
      recency.push_back(l);
    }
    for (const std::uint64_t l : recency) {
      index.append(l);
      live.push_back(l);
      if (index.window() != windows.back()) windows.push_back(index.window());
    }
  }
  EXPECT_GE(windows.size(), 4u);  // 1024 and three growths
}

TEST(SetAssoc, FullyAssociativeLruMatchesLruCache) {
  SetAssocCache sa(64, 64, 1);
  LruCache lru(64, 300);
  SplitMix64 rng(5);
  for (int i = 0; i < 50000; ++i) {
    const auto addr = rng.below(300);
    ASSERT_EQ(sa.access(addr), lru.access(addr)) << i;
  }
}

TEST(SetAssoc, DirectMappedConflicts) {
  // Two addresses mapping to the same set of a direct-mapped cache thrash.
  SetAssocCache dm(8, 1, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(dm.access(0));
    EXPECT_FALSE(dm.access(8));  // same set, evicts 0
  }
  EXPECT_EQ(dm.hits(), 0u);
}

TEST(SetAssoc, LineGranularityGivesSpatialHits) {
  SetAssocCache c(64, 4, 8);  // 8-element lines
  EXPECT_FALSE(c.access(0));
  for (std::uint64_t a = 1; a < 8; ++a) {
    EXPECT_TRUE(c.access(a)) << a;  // same line
  }
  EXPECT_FALSE(c.access(8));  // next line
}

TEST(SetAssoc, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache(10, 4, 1), Error);  // 10 % 4 != 0
  EXPECT_THROW(SetAssocCache(64, 4, 3), Error);  // line not a power of two
}

TEST(SimDrivers, LruAndProfilerAgreeOnProgramTraces) {
  auto g = ir::matmul_tiled();
  const auto env = g.make_env({16, 16, 16}, {4, 4, 8});
  trace::CompiledProgram cp(g.prog, env);
  const auto profile = profile_stack_distances(cp);
  for (std::int64_t cap : {1, 2, 8, 32, 100, 512, 5000}) {
    const auto sim = simulate_lru(cp, cap);
    EXPECT_EQ(sim.misses, profile.misses(cap)) << "cap " << cap;
    EXPECT_EQ(sim.accesses, profile.accesses);
  }
}

TEST(SimDrivers, PerSiteMissesSumToTotal) {
  auto g = ir::two_index_tiled();
  const auto env = g.make_env({8, 8, 8, 8}, {4, 2, 4, 2});
  trace::CompiledProgram cp(g.prog, env);
  const auto sim = simulate_lru(cp, 24);
  std::uint64_t sum = 0;
  for (auto m : sim.misses_by_site) sum += m;
  EXPECT_EQ(sum, sim.misses);
}

TEST(SimDrivers, MissesMonotoneInCapacity) {
  auto g = ir::matmul();
  const auto env = g.make_env({12, 12, 12}, {});
  trace::CompiledProgram cp(g.prog, env);
  const auto profile = profile_stack_distances(cp);
  std::uint64_t prev = profile.misses(1);
  for (std::int64_t cap = 2; cap < 600; cap += 7) {
    const auto m = profile.misses(cap);
    EXPECT_LE(m, prev);
    prev = m;
  }
  // At huge capacity only cold misses remain: the total footprint.
  EXPECT_EQ(profile.misses(1 << 30), cp.address_space_size());
}

}  // namespace
}  // namespace sdlo::cachesim
