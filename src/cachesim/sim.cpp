#include "cachesim/sim.hpp"

#include <bit>

#include "support/failpoints.hpp"

namespace sdlo::cachesim {

SimResult simulate_lru(const trace::CompiledProgram& prog,
                       std::int64_t capacity) {
  LruCache cache(capacity, prog.address_space_size());
  SimResult r;
  r.misses_by_site.assign(static_cast<std::size_t>(prog.num_sites()), 0);
  prog.walk([&](const trace::Access& a) {
    ++r.accesses;
    if (!cache.access(a.addr)) {
      ++r.misses;
      ++r.misses_by_site[static_cast<std::size_t>(a.site)];
    }
  });
  return r;
}

SimResult simulate_set_assoc(const trace::CompiledProgram& prog,
                             std::int64_t capacity_elems, int ways,
                             std::int64_t line_elems, Replacement policy) {
  SetAssocCache cache(capacity_elems, ways, line_elems, policy);
  SimResult r;
  r.misses_by_site.assign(static_cast<std::size_t>(prog.num_sites()), 0);
  prog.walk([&](const trace::Access& a) {
    ++r.accesses;
    if (!cache.access(a.addr)) {
      ++r.misses;
      ++r.misses_by_site[static_cast<std::size_t>(a.site)];
    }
  });
  return r;
}

SimResult simulate_lru_lines(const trace::CompiledProgram& prog,
                             std::int64_t capacity_elems,
                             std::int64_t line_elems) {
  SDLO_EXPECTS(line_elems > 0);
  SDLO_EXPECTS(std::has_single_bit(
      static_cast<std::uint64_t>(line_elems)));
  SDLO_CHECK(capacity_elems % line_elems == 0,
             "capacity must be a whole number of lines");
  const int shift =
      std::countr_zero(static_cast<std::uint64_t>(line_elems));
  LruCache cache(capacity_elems / line_elems,
                 prog.footprint_lines(line_elems));
  SimResult r;
  r.misses_by_site.assign(static_cast<std::size_t>(prog.num_sites()), 0);
  prog.walk([&](const trace::Access& a) {
    ++r.accesses;
    if (!cache.access(a.addr >> shift)) {
      ++r.misses;
      ++r.misses_by_site[static_cast<std::size_t>(a.site)];
    }
  });
  return r;
}

namespace {

/// Feeds one run group into the profiler, bulk-accounting the depths the
/// run structure proves. Mirrors the sweep engine's fast paths minus the
/// disjoint-group one: the Fenwick marks cannot be silently replayed, so
/// only shapes whose marks end in the exact final order are bulked.
void profile_run_group(StackDistanceProfiler& profiler, const trace::Run* g,
                       std::size_t nrefs, int shift,
                       std::int64_t line_elems) {
  const std::uint64_t count = g[0].count;
  if (count == 1) {  // statement group (any width): one access per ref
    for (std::size_t r = 0; r < nrefs; ++r) {
      profiler.access(g[r].base >> shift, g[r].site);
    }
    return;
  }
  if (nrefs == 1) {
    const trace::Run& run = g[0];
    const std::uint64_t mag = static_cast<std::uint64_t>(
        run.stride < 0 ? -run.stride : run.stride);
    if (mag == 0) {
      // Same line throughout: every access after the first has depth 1.
      profiler.access(run.base >> shift, run.site);
      profiler.record_repeats(1, count - 1, run.site);
      return;
    }
    if (mag < static_cast<std::uint64_t>(line_elems)) {
      // Sub-line stride: collapse the consecutive same-line accesses
      // between line crossings.
      std::uint64_t v = 0;
      std::uint64_t a = run.base;
      while (v < count) {
        const std::uint64_t line = a >> shift;
        std::uint64_t span;
        if (run.stride > 0) {
          span = (((line + 1) << shift) - a + mag - 1) / mag;
        } else {
          span = (a - (line << shift)) / mag + 1;
        }
        if (span > count - v) span = count - v;
        profiler.access(line, run.site);
        if (span > 1) profiler.record_repeats(1, span - 1, run.site);
        v += span;
        a += span * static_cast<std::uint64_t>(run.stride);
      }
      return;
    }
    // Every element lands on a fresh line: exact per-element profiling.
    std::uint64_t a = run.base;
    for (std::uint64_t v = 0; v < count; ++v) {
      profiler.access(a >> shift, run.site);
      a += static_cast<std::uint64_t>(run.stride);
    }
    return;
  }
  bool pinned = true;
  for (std::size_t r = 0; r < nrefs; ++r) {
    if ((g[r].base >> shift) != (g[r].at(count - 1) >> shift)) {
      pinned = false;
      break;
    }
  }
  if (pinned) {
    // Every ref stays on one line, so the per-iteration access sequence is
    // literally periodic: iterations >= 1 repeat iteration 1's depths, and
    // skipping them leaves every mark in the final relative order.
    SDLO_EXPECTS(nrefs <= trace::kMaxLeafRefs);
    for (std::size_t r = 0; r < nrefs; ++r) {
      profiler.access(g[r].base >> shift, g[r].site);
    }
    std::int64_t depths[trace::kMaxLeafRefs];
    for (std::size_t r = 0; r < nrefs; ++r) {
      depths[r] = profiler.access(g[r].base >> shift, g[r].site);
      SDLO_EXPECTS(depths[r] >= 1);  // iteration 0 touched every line
    }
    for (std::size_t r = 0; r < nrefs; ++r) {
      profiler.record_repeats(depths[r], count - 2, g[r].site);
    }
    return;
  }
  // Mixed group: exact per-element decompression, iteration-major.
  SDLO_EXPECTS(nrefs <= trace::kMaxLeafRefs);
  std::uint64_t addrs[trace::kMaxLeafRefs];
  for (std::size_t r = 0; r < nrefs; ++r) addrs[r] = g[r].base;
  for (std::uint64_t v = 0; v < count; ++v) {
    for (std::size_t r = 0; r < nrefs; ++r) {
      profiler.access(addrs[r] >> shift, g[r].site);
      addrs[r] += static_cast<std::uint64_t>(g[r].stride);
    }
  }
}

}  // namespace

namespace {

/// Internal control-flow exception: thrown by a governed walk sink to stop
/// the walk at a safe boundary. Never escapes this translation unit.
struct AbortProfile {};

}  // namespace

ProfileResult profile_stack_distances(const trace::CompiledProgram& prog,
                                      std::int64_t line_elems,
                                      const Governor* gov) {
  SDLO_EXPECTS(line_elems > 0);
  SDLO_EXPECTS(std::has_single_bit(
      static_cast<std::uint64_t>(line_elems)));
  const int shift =
      std::countr_zero(static_cast<std::uint64_t>(line_elems));
  // The dense last-access table is one uint64 per footprint line; gate it
  // on the governor's memory budget (and the named failpoint) and fall
  // back to the hashed table — bit-identical, just slower — when denied.
  std::uint64_t addr_limit = prog.footprint_lines(line_elems);
  MemoryReservation reservation;
  if (failpoints::fail_alloc(failpoints::kProfilerDenseAlloc)) {
    addr_limit = 0;
  } else if (gov != nullptr && gov->memory != nullptr) {
    reservation =
        MemoryReservation(gov->memory, addr_limit * sizeof(std::uint64_t));
    if (!reservation.ok()) addr_limit = 0;
  }
  StackDistanceProfiler profiler(
      static_cast<std::size_t>(prog.address_space_size() >> shift),
      addr_limit);
  profiler.enable_site_tracking(prog.num_sites());
  const std::uint64_t interval =
      gov != nullptr && gov->poll_interval > 0 ? gov->poll_interval : 1024;
  std::uint64_t tick = 0;
  bool complete = true;
  try {
    prog.walk_runs([&](const trace::Run* g, std::size_t nrefs) {
      if (gov != nullptr && ++tick >= interval) {
        tick = 0;
        if (gov->should_stop()) throw AbortProfile{};
      }
      profile_run_group(profiler, g, nrefs, shift, line_elems);
    });
  } catch (const AbortProfile&) {
    complete = false;
  }
  return profiler.result(line_elems, complete ? Completeness::kComplete
                                              : Completeness::kTruncated);
}

}  // namespace sdlo::cachesim
