#include "cachesim/set_assoc_cache.hpp"

#include <bit>

#include "support/check.hpp"

namespace sdlo::cachesim {

SetAssocCache::SetAssocCache(std::int64_t capacity_elems, int ways,
                             std::int64_t line_elems)
    : ways_(ways), line_elems_(line_elems) {
  SDLO_EXPECTS(capacity_elems > 0 && ways > 0 && line_elems > 0);
  SDLO_EXPECTS(std::has_single_bit(static_cast<std::uint64_t>(line_elems)));
  SDLO_CHECK(capacity_elems % (ways * line_elems) == 0,
             "capacity must be divisible by ways*line_elems");
  num_sets_ = capacity_elems / (ways * line_elems);
  line_shift_ = std::countr_zero(static_cast<std::uint64_t>(line_elems));
  lines_.assign(static_cast<std::size_t>(num_sets_ * ways), Line{});
}

bool SetAssocCache::access(std::uint64_t addr) {
  ++clock_;
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::uint64_t set =
      line_addr % static_cast<std::uint64_t>(num_sets_);
  const std::uint64_t tag = line_addr / static_cast<std::uint64_t>(num_sets_);
  Line* base = &lines_[set * static_cast<std::uint64_t>(ways_)];

  Line* victim = base;
  for (int w = 0; w < ways_; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      ++hits_;
      line.stamp = clock_;
      return true;
    }
    if (!line.valid) {
      if (victim->valid) victim = &line;
    } else if (!victim->valid) {
      // keep invalid victim
    } else if (line.stamp < victim->stamp) {
      victim = &line;
    }
  }
  ++misses_;
  victim->valid = true;
  victim->tag = tag;
  victim->stamp = clock_;
  return false;
}

}  // namespace sdlo::cachesim
