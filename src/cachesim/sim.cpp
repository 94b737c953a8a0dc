#include "cachesim/sim.hpp"

#include <bit>

#include "cachesim/recency_index.hpp"

namespace sdlo::cachesim {

SimResult simulate_lru(const trace::CompiledProgram& prog,
                       std::int64_t capacity) {
  return simulate_lru_lines(prog, capacity, 1);
}

SimResult simulate_set_assoc(const trace::CompiledProgram& prog,
                             std::int64_t capacity_elems, int ways,
                             std::int64_t line_elems) {
  SetAssocCache cache(capacity_elems, ways, line_elems);
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
  RecencyIndex index(prog.footprint_lines(line_elems));
  ProfileResult r;
  r.line_elems = line_elems;
  r.cold_by_site.assign(static_cast<std::size_t>(prog.num_sites()), 0);
  r.histogram_by_site.resize(static_cast<std::size_t>(prog.num_sites()));
  prog.walk([&](const trace::Access& a) {
    const std::uint64_t line = a.addr >> shift;
    const auto depth = static_cast<std::int64_t>(index.resolve(line));
    index.append(line);
    ++r.accesses;
    const auto site = static_cast<std::size_t>(a.site);
    if (depth == 0) {
      ++r.cold;
      ++r.cold_by_site[site];
    } else {
      ++r.histogram[depth];
      ++r.histogram_by_site[site][depth];
    }
  });
  return r;
}

}  // namespace sdlo::cachesim
