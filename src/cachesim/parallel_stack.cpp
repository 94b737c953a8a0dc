#include "cachesim/parallel_stack.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "cachesim/marker_stack.hpp"
#include "cachesim/recency_index.hpp"
#include "support/check.hpp"
#include "support/failpoints.hpp"
#include "support/timer.hpp"

namespace sdlo::cachesim {

namespace {

using trace::Run;

/// Internal control-flow exception: thrown by a governed walk at a
/// run-group boundary. Never escapes this translation unit.
struct AbortWalk {};

/// One chunk's profile for one line size: the per-chunk engine plus its
/// recorded holes.
struct ChunkProfile {
  std::unique_ptr<MarkerStackEngine> engine;
  std::vector<Hole> holes;
};

/// The incremental half of the rolling frontier: folds chunks into the
/// merge's recency index strictly in trace order, one call per chunk,
/// and releases each chunk's engine the moment it is merged. Because the
/// fold order equals the sequential merge order, the accumulated buckets,
/// cold counts and access totals are bit-identical to the barriered merge
/// no matter when (relative to still-profiling workers) each fold runs.
class FrontierMerger {
 public:
  FrontierMerger(const std::vector<std::int64_t>& caps,
                 std::int32_t num_sites, std::uint64_t fp)
      : caps_(caps),
        ks_(caps.size() + 1),
        buckets_(static_cast<std::size_t>(num_sites) * ks_, 0),
        cold_by_site_(static_cast<std::size_t>(num_sites), 0),
        merge_(fp) {}

  /// Folds chunk `p` in (must be called for chunks 0, 1, 2, ... in order)
  /// and frees its engine and hole list.
  void merge_chunk(ChunkProfile& p) {
    accesses_ += p.engine->accesses();
    for (std::size_t j = 0; j < p.holes.size(); ++j) {
      const Hole& h = p.holes[j];
      const std::uint64_t cnt = merge_.resolve(h.line);
      if (cnt == 0) {
        ++cold_by_site_[static_cast<std::size_t>(h.site)];
        continue;
      }
      ++buckets_[static_cast<std::size_t>(h.site) * ks_ +
                 segment_of_depth(caps_, cnt + j)];
    }
    for (std::uint64_t l : p.engine->recency_order()) merge_.append(l);
    const std::vector<std::uint64_t>& chunk_buckets = p.engine->buckets();
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += chunk_buckets[i];
    }
    p.engine.reset();
    std::vector<Hole>().swap(p.holes);
  }

  /// Writes the merged result into the `slots` of `out`.
  void finish(const std::vector<std::vector<std::size_t>>& slots,
              bool truncated, std::vector<SimResult>& out) const {
    fold_segments(buckets_, cold_by_site_, accesses_,
                  truncated ? Completeness::kTruncated
                            : Completeness::kComplete,
                  slots, out);
  }

 private:
  const std::vector<std::int64_t>& caps_;
  std::size_t ks_;
  std::vector<std::uint64_t> buckets_;
  std::vector<std::uint64_t> cold_by_site_;
  std::uint64_t accesses_ = 0;
  RecencyIndex merge_;
};

/// Per-group completion board shared between the workers and the merging
/// thread: done flags, a running count, and the first captured error.
struct FrontierBoard {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> done;
  std::size_t done_count = 0;
  std::exception_ptr first_error;
};

/// Checks every configuration and returns the distinct line sizes, in
/// first-seen order.
std::vector<std::int64_t> distinct_lines(
    const std::vector<SweepConfig>& configs) {
  std::vector<std::int64_t> lines;
  for (const SweepConfig& c : configs) {
    check_sweep_config(c);
    if (std::find(lines.begin(), lines.end(), c.line_elems) == lines.end()) {
      lines.push_back(c.line_elems);
    }
  }
  return lines;
}

/// Sorted distinct capacities (in lines) for one line size, each with the
/// result slots it serves.
void collect_caps(const std::vector<SweepConfig>& configs, std::int64_t line,
                  std::vector<std::int64_t>& distinct,
                  std::vector<std::vector<std::size_t>>& slots) {
  std::vector<std::pair<std::int64_t, std::size_t>> caps;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].line_elems == line) {
      caps.emplace_back(configs[i].capacity_elems / line, i);
    }
  }
  std::sort(caps.begin(), caps.end());
  distinct.clear();
  slots.clear();
  for (const auto& [cap, slot] : caps) {
    if (distinct.empty() || distinct.back() != cap) {
      distinct.push_back(cap);
      slots.emplace_back();
    }
    slots.back().push_back(slot);
  }
}

/// Chunk boundaries: equal access-count targets, snapped to run-group
/// boundaries analytically (no scan over the group stream).
std::vector<std::uint64_t> make_bounds(const trace::CompiledProgram& src,
                                       std::uint64_t chunks,
                                       std::uint64_t end_group,
                                       std::uint64_t total_accesses) {
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(chunks) + 1);
  bounds[0] = 0;
  bounds[static_cast<std::size_t>(chunks)] = end_group;
  for (std::uint64_t j = 1; j < chunks; ++j) {
    const std::uint64_t target =
        std::min(j * (total_accesses / chunks), total_accesses - 1);
    std::uint64_t g = src.group_of_access(target);
    g = std::min(g, end_group);
    g = std::max(g, bounds[static_cast<std::size_t>(j) - 1]);
    bounds[static_cast<std::size_t>(j)] = g;
  }
  return bounds;
}

/// Per line size state of one streamed sweep: the distinct capacities with
/// their result slots and the frontier merger folding chunks in order.
/// `caps` lives here because FrontierMerger holds a reference to it.
struct StreamLine {
  std::int64_t line = 0;
  std::uint64_t fp = 0;
  std::vector<std::int64_t> caps;
  std::vector<std::vector<std::size_t>> slots;
  std::unique_ptr<FrontierMerger> merger;
};

}  // namespace

std::vector<SimResult> simulate_sweep_streamed(
    const trace::CompiledProgram& prog,
    const std::vector<SweepConfig>& configs, parallel::ThreadPool* pool,
    const StreamOptions& sopt, const Governor* gov) {
  const PartitionOptions& opt = sopt.partition;
  std::vector<SimResult> out(configs.size());

  const std::uint64_t total_groups = prog.group_count();
  const std::uint64_t total_accesses = prog.total_accesses();
  const std::uint64_t end_group =
      opt.max_groups > 0 ? std::min(total_groups, opt.max_groups)
                         : total_groups;
  const bool capped = end_group < total_groups;
  const std::uint64_t interval =
      gov != nullptr && gov->poll_interval > 0 ? gov->poll_interval : 1024;

  const std::vector<std::int64_t> line_sizes = distinct_lines(configs);
  const std::int32_t num_sites = prog.num_sites();
  trace::SpoolWriter* tee = sopt.tee;
  double spool_seconds = 0;

  // Walks groups [0, end_group) into the tee on this thread; returns false
  // when the governor stopped it early. The caller decides whether to
  // finish() the spool.
  auto tee_walk = [&]() {
    if (tee == nullptr) return true;
    std::uint64_t tick = 0;
    try {
      prog.walk_runs_range(0, end_group, [&](const Run* g, std::size_t n) {
        if (gov != nullptr && ++tick >= interval) {
          tick = 0;
          if (gov->should_stop()) throw AbortWalk{};
        }
        WallTimer t;
        tee->add_group(g, n);
        spool_seconds += t.seconds();
      });
    } catch (const AbortWalk&) {
      return false;
    }
    return true;
  };

  // Every row zero accesses and zero misses: the exact result of an empty
  // trace, or of the empty prefix when `completeness` is kTruncated.
  auto zero_rows = [&](Completeness completeness) {
    for (SimResult& r : out) {
      r.misses_by_site.assign(static_cast<std::size_t>(num_sites), 0);
      r.completeness = completeness;
    }
    return out;
  };

  if (total_accesses == 0 || end_group == 0 || line_sizes.empty()) {
    const bool complete = tee_walk() && !capped;
    if (opt.stats != nullptr) opt.stats->spool_write_seconds += spool_seconds;
    return zero_rows(complete ? Completeness::kComplete
                              : Completeness::kTruncated);
  }
  // An injected denial of the dense tables: nothing is walked.
  if (failpoints::fail_alloc(failpoints::kSweepDenseAlloc)) {
    return zero_rows(Completeness::kTruncated);
  }

  // Two plans: N chunks on a pool of >= 2 threads, or one chunk on this
  // thread, which has no reuse crossing a chunk boundary: no holes, no
  // merge.
  const int threads = opt.threads > 0
                          ? opt.threads
                          : (pool != nullptr ? pool->num_threads() : 1);
  std::uint64_t chunks = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(std::max(opt.chunks > 0 ? opt.chunks
                                                         : threads,
                                          1)),
      end_group);
  bool pooled = pool != nullptr && pool->num_threads() > 1 && chunks > 1;
  if (!pooled) chunks = 1;

  // Reserve every live chunk's dense tables up front, plus, on the pool,
  // each chunk's hole list (at most one Hole per footprint line) and the
  // merge index at its worst case.
  auto reserve_tables = [&]() {
    std::uint64_t bytes = 0;
    for (std::int64_t line : line_sizes) {
      const std::uint64_t fp = prog.footprint_lines(line);
      bytes += chunks * fp * kStackBytesPerLine;
      if (pooled) {
        bytes += chunks * fp * sizeof(Hole) + RecencyIndex::max_bytes(fp);
      }
    }
    return MemoryReservation(gov != nullptr ? gov->memory : nullptr, bytes);
  };
  MemoryReservation reservation = reserve_tables();
  if (!reservation.ok() && pooled) {
    // Middle rung: one chunk needs only the stack tables.
    chunks = 1;
    pooled = false;
    reservation = reserve_tables();
  }
  // Denied on the last rung too: the budget is never exceeded, so the
  // result is the empty prefix and nothing is walked.
  if (!reservation.ok()) return zero_rows(Completeness::kTruncated);
  const std::size_t nchunks = static_cast<std::size_t>(chunks);

  const std::vector<std::uint64_t> bounds =
      make_bounds(prog, chunks, end_group, total_accesses);

  std::vector<StreamLine> lines(line_sizes.size());
  for (std::size_t l = 0; l < lines.size(); ++l) {
    lines[l].line = line_sizes[l];
    lines[l].fp = prog.footprint_lines(lines[l].line);
    collect_caps(configs, lines[l].line, lines[l].caps, lines[l].slots);
    if (pooled) {
      lines[l].merger = std::make_unique<FrontierMerger>(
          lines[l].caps, num_sites, lines[l].fp);
    }
  }

  // Raised when the caller stops waiting for the remaining chunks (an
  // unwinding error, or a frontier that stopped early), so running walks
  // return at their next poll instead of finishing work nobody merges.
  std::atomic<bool> abandon{false};

  // Profiles chunk cc: walks its own group range [bounds[cc],
  // bounds[cc+1]) — O(plan depth) to seek — into fresh engines, one per
  // line size (a one-chunk plan records no holes). Polls the governor at
  // group boundaries; returns false when the walk stopped early.
  auto profile_chunk = [&](std::size_t cc, std::vector<ChunkProfile>& prof) {
    prof.clear();
    prof.resize(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l) {
      prof[l].engine = std::make_unique<MarkerStackEngine>(
          lines[l].caps, lines[l].line, num_sites, lines[l].fp,
          pooled ? &prof[l].holes : nullptr);
    }
    std::uint64_t tick = 0;
    try {
      prog.walk_runs_range(
          bounds[cc], bounds[cc + 1] - bounds[cc],
          [&](const Run* g, std::size_t n) {
            if (++tick >= interval) {
              tick = 0;
              if (abandon.load(std::memory_order_relaxed) ||
                  governor_should_stop(gov)) {
                throw AbortWalk{};
              }
            }
            for (ChunkProfile& p : prof) p.engine->consume_runs(g, n);
          });
    } catch (const AbortWalk&) {
      return false;
    }
    return true;
  };

  bool truncated = capped;
  double merge_seconds = 0;
  double wait_seconds = 0;
  std::uint64_t merged_chunks = 0;
  std::uint64_t overlapped = 0;

  if (pooled) {
    // One pool task per chunk, each walking its own group range; the
    // caller walks the trace once for the tee meanwhile, then advances the
    // rolling merge frontier while later chunks are still profiling.
    std::vector<std::vector<ChunkProfile>> profiles(nchunks);
    std::vector<char> chunk_complete(nchunks, 0);
    FrontierBoard board;
    board.done.assign(nchunks, 0);

    // If anything below throws (a failed submit, an injected tee write
    // failure), the workers must not outlive the profiles they fill: stop
    // them and drain the pool before unwinding. Idempotent on the normal
    // path, which waits explicitly.
    struct PoolDrain {
      std::atomic<bool>& abandon;
      parallel::ThreadPool* pool;
      ~PoolDrain() {
        abandon.store(true, std::memory_order_relaxed);
        try {
          pool->wait_idle();
        } catch (...) {  // NOLINT(bugprone-empty-catch)
          // First error already consumed by the explicit wait_idle.
        }
      }
    } drain{abandon, pool};

    for (std::size_t cc = 0; cc < nchunks; ++cc) {
      pool->submit([&, cc] {
        try {
          chunk_complete[cc] =
              static_cast<char>(profile_chunk(cc, profiles[cc]));
        } catch (...) {
          std::scoped_lock lock(board.mu);
          if (!board.first_error) {
            board.first_error = std::current_exception();
          }
        }
        {
          std::scoped_lock lock(board.mu);
          board.done[cc] = 1;
          ++board.done_count;
        }
        board.cv.notify_all();
      });
    }
    tee_walk();

    // Rolling frontier: fold chunks in trace order as they finish. It stops
    // at the first chunk that failed, or that a pool fault dropped (such a
    // task never signals, so the pool going idle gives it away); any
    // failure is rethrown below.
    for (std::size_t cc = 0; cc < nchunks; ++cc) {
      std::size_t profiled_now = 0;
      bool ready = false;
      {
        WallTimer wait_timer;
        std::unique_lock lock(board.mu);
        while (!board.cv.wait_for(lock, std::chrono::milliseconds(2), [&] {
          return board.done[cc] != 0 || board.first_error != nullptr;
        })) {
          if (pool->idle()) break;
        }
        ready = board.done[cc] != 0 && board.first_error == nullptr;
        profiled_now = board.done_count;
        wait_seconds += wait_timer.seconds();
      }
      if (!ready) {
        truncated = true;
        break;
      }

      WallTimer t;
      for (std::size_t l = 0; l < lines.size(); ++l) {
        lines[l].merger->merge_chunk(profiles[cc][l]);
      }
      merge_seconds += t.seconds();
      ++merged_chunks;
      if (opt.merge_observer) opt.merge_observer(cc, profiled_now, nchunks);
      if (profiled_now < nchunks) ++overlapped;
      if (chunk_complete[cc] == 0) {
        truncated = true;
        break;
      }
    }
    abandon.store(true, std::memory_order_relaxed);
    pool->wait_idle();
    {
      std::scoped_lock lock(board.mu);
      if (board.first_error) std::rethrow_exception(board.first_error);
    }
    for (const StreamLine& sl : lines) {
      sl.merger->finish(sl.slots, truncated, out);
    }
  } else {
    // One chunk on this thread: its engines are the result.
    tee_walk();
    std::vector<ChunkProfile> prof;
    if (!profile_chunk(0, prof)) truncated = true;
    merged_chunks = 1;
    if (opt.merge_observer) opt.merge_observer(0, 1, 1);
    for (std::size_t l = 0; l < lines.size(); ++l) {
      const MarkerStackEngine& e = *prof[l].engine;
      fold_segments(e.buckets(), e.cold_by_site(), e.accesses(),
                    truncated ? Completeness::kTruncated
                              : Completeness::kComplete,
                    lines[l].slots, out);
    }
  }

  if (opt.stats != nullptr) {
    opt.stats->merge_seconds += merge_seconds;
    opt.stats->merge_wait_seconds += wait_seconds;
    opt.stats->spool_write_seconds += spool_seconds;
    opt.stats->chunks += chunks;
    opt.stats->merged_chunks += merged_chunks;
    opt.stats->overlapped_merges += overlapped;
  }
  return out;
}

}  // namespace sdlo::cachesim
