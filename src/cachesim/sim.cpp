#include "cachesim/sim.hpp"

#include <bit>

namespace sdlo::cachesim {

SimResult simulate_lru(const trace::CompiledProgram& prog,
                       std::int64_t capacity) {
  return simulate_lru_lines(prog, capacity, 1);
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

ProfileResult profile_stack_distances(const trace::CompiledProgram& prog,
                                      std::int64_t line_elems) {
  SDLO_EXPECTS(line_elems > 0);
  SDLO_EXPECTS(std::has_single_bit(
      static_cast<std::uint64_t>(line_elems)));
  const int shift =
      std::countr_zero(static_cast<std::uint64_t>(line_elems));
  StackDistanceProfiler profiler(prog.footprint_lines(line_elems));
  profiler.enable_site_tracking(prog.num_sites());
  prog.walk([&](const trace::Access& a) {
    profiler.access(a.addr >> shift, a.site);
  });
  return profiler.result(line_elems);
}

}  // namespace sdlo::cachesim
