#include "cachesim/parallel_stack.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
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

/// Per line size state of one streamed sweep: its footprint and the
/// distinct capacities with their result slots.
struct StreamLine {
  std::int64_t line = 0;
  std::uint64_t fp = 0;
  std::vector<std::int64_t> caps;
  std::vector<std::vector<std::size_t>> slots;
};

/// The hole merge for one line size: folds line `l` of chunks
/// 0..merged-1 into a RecencyIndex strictly in trace order, freeing each
/// chunk's engine and hole list right after its fold, and writes the
/// merged rows into `sl.slots` of `out`.
void merge_chunks(std::vector<std::vector<ChunkProfile>>& profiles,
                  std::size_t merged, std::size_t l, const StreamLine& sl,
                  std::int32_t num_sites, Completeness completeness,
                  std::vector<SimResult>& out) {
  const std::size_t ks = sl.caps.size() + 1;
  std::vector<std::uint64_t> buckets(static_cast<std::size_t>(num_sites) * ks,
                                     0);
  std::vector<std::uint64_t> cold_by_site(static_cast<std::size_t>(num_sites),
                                          0);
  std::uint64_t accesses = 0;
  RecencyIndex index(sl.fp);
  for (std::size_t c = 0; c < merged; ++c) {
    ChunkProfile& p = profiles[c][l];
    accesses += p.engine->accesses();
    for (std::size_t j = 0; j < p.holes.size(); ++j) {
      const Hole& h = p.holes[j];
      const std::uint64_t cnt = index.resolve(h.line);
      if (cnt == 0) {
        ++cold_by_site[static_cast<std::size_t>(h.site)];
        continue;
      }
      ++buckets[static_cast<std::size_t>(h.site) * ks +
                segment_of_depth(sl.caps, cnt + j)];
    }
    for (std::uint64_t line : p.engine->recency_order()) index.append(line);
    const std::vector<std::uint64_t>& chunk_buckets = p.engine->buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += chunk_buckets[i];
    }
    p.engine.reset();
    std::vector<Hole>().swap(p.holes);
  }
  fold_segments(buckets, cold_by_site, accesses, completeness, sl.slots, out);
}

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
        tee->add_group(g, n);
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
  }

  // Raised when the caller unwinds before the chunks finish (a failed
  // submit, a throwing tee write), so running walks return at their next
  // poll instead of finishing work nobody merges.
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

  if (pooled) {
    // One pool task per chunk, each walking its own group range; the
    // caller walks the trace once for the tee meanwhile, waits for every
    // chunk, then merges them in trace order.
    std::vector<std::vector<ChunkProfile>> profiles(nchunks);
    std::vector<char> chunk_complete(nchunks, 0);

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
        chunk_complete[cc] = static_cast<char>(profile_chunk(cc, profiles[cc]));
      });
    }
    tee_walk();

    // The barrier: rethrows the first error of any chunk task, a task the
    // pool dropped (an injected pool-task fault) included.
    WallTimer wait_timer;
    pool->wait_idle();
    wait_seconds = wait_timer.seconds();

    // Merge chunks 0..merged-1: through the first incomplete one, whose
    // successors do not extend a contiguous prefix.
    std::size_t merged = 0;
    while (merged < nchunks && chunk_complete[merged] != 0) ++merged;
    if (merged < nchunks) {
      truncated = true;
      ++merged;
    }
    const Completeness completeness =
        truncated ? Completeness::kTruncated : Completeness::kComplete;
    WallTimer t;
    for (std::size_t l = 0; l < lines.size(); ++l) {
      merge_chunks(profiles, merged, l, lines[l], num_sites, completeness,
                   out);
    }
    merge_seconds = t.seconds();
  } else {
    // One chunk on this thread: its engines are the result.
    tee_walk();
    std::vector<ChunkProfile> prof;
    if (!profile_chunk(0, prof)) truncated = true;
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
    opt.stats->chunks += chunks;
  }
  return out;
}

}  // namespace sdlo::cachesim
