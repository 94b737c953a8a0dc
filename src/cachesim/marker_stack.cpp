#include "cachesim/marker_stack.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace sdlo::cachesim {

namespace {

using trace::Run;

/// Lines prefetched ahead of the current element in strided loops.
constexpr std::size_t kPrefetchAhead = 8;

/// Line indices batch-generated per fill_lines call in the strided
/// per-element paths.
constexpr std::size_t kLineBatch = 512;

/// out[i] = (base + i*stride) >> shift for i in [0, n): the line-index
/// sequence of a constant-stride run. Addresses wrap mod 2^64, matching
/// trace::Run::at.
void fill_lines(std::uint64_t base, std::int64_t stride, int shift,
                std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = base >> shift;
    base += static_cast<std::uint64_t>(stride);
  }
}

}  // namespace

void fold_segments(const std::vector<std::uint64_t>& buckets,
                   const std::vector<std::uint64_t>& cold_by_site,
                   std::uint64_t accesses, Completeness completeness,
                   const std::vector<std::vector<std::size_t>>& slots,
                   std::vector<SimResult>& out) {
  const std::size_t num_caps = slots.size();
  const std::size_t ks = num_caps + 1;
  const std::size_t num_sites = cold_by_site.size();
  for (std::size_t r = 0; r < num_caps; ++r) {
    for (std::size_t slot : slots[r]) {
      SimResult& res = out[slot];
      res.accesses = accesses;
      res.completeness = completeness;
      res.misses = 0;
      res.misses_by_site.assign(num_sites, 0);
      for (std::size_t s = 0; s < num_sites; ++s) {
        std::uint64_t m = cold_by_site[s];
        const std::uint64_t* b = buckets.data() + s * ks;
        for (std::size_t seg = r + 1; seg <= num_caps; ++seg) m += b[seg];
        res.misses_by_site[s] = m;
        res.misses += m;
      }
    }
  }
}

MarkerStackEngine::MarkerStackEngine(std::vector<std::int64_t> caps_lines,
                                     std::int64_t line_elems,
                                     std::int32_t num_sites,
                                     std::uint64_t footprint_lines,
                                     std::vector<Hole>* hole_sink)
    : caps_(std::move(caps_lines)),
      line_elems_(line_elems),
      shift_(std::countr_zero(static_cast<std::uint64_t>(line_elems))),
      num_sites_(num_sites),
      ks_(caps_.size() + 1),
      markers_(caps_.size(), -1),
      node_of_(static_cast<std::size_t>(footprint_lines), -1),
      buckets_(static_cast<std::size_t>(num_sites) * ks_, 0),
      cold_by_site_(static_cast<std::size_t>(num_sites), 0),
      hole_sink_(hole_sink) {
  SDLO_CHECK(caps_.size() < 255,
             "sweep supports at most 254 distinct capacities per line size");
  SDLO_CHECK(line_elems > 0 &&
                 std::has_single_bit(static_cast<std::uint64_t>(line_elems)),
             "line size must be a positive power of two");
  nodes_.reserve(static_cast<std::size_t>(footprint_lines));
  seg_.reserve(static_cast<std::size_t>(footprint_lines));
}

std::size_t segment_of_depth(const std::vector<std::int64_t>& caps,
                             std::uint64_t depth) {
  return static_cast<std::size_t>(
      std::lower_bound(caps.begin(), caps.end(),
                       static_cast<std::int64_t>(depth)) -
      caps.begin());
}

std::vector<std::uint64_t> MarkerStackEngine::recency_order() const {
  // node -> line reverse map, then one list walk from the LRU end.
  std::vector<std::uint64_t> line_of(nodes_.size(), 0);
  for (std::size_t line = 0; line < node_of_.size(); ++line) {
    if (node_of_[line] >= 0) {
      line_of[static_cast<std::size_t>(node_of_[line])] = line;
    }
  }
  std::vector<std::uint64_t> order;
  order.reserve(nodes_.size());
  for (std::int32_t n = tail_; n >= 0;
       n = nodes_[static_cast<std::size_t>(n)].prev) {
    order.push_back(line_of[static_cast<std::size_t>(n)]);
  }
  return order;
}

void MarkerStackEngine::step_lines(const std::uint64_t* lines, std::size_t n,
                                   std::int32_t site) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(&node_of_[lines[i + kPrefetchAhead]]);
    }
    step(lines[i], site);
  }
}

void MarkerStackEngine::consume_runs(const Run* g, std::size_t nrefs) {
  const std::uint64_t count = g[0].count;
  accesses_ += count * nrefs;
  if (count == 1) {  // statement group (any width): one step per ref
    for (std::size_t r = 0; r < nrefs; ++r) {
      step(g[r].base >> shift_, g[r].site);
    }
    return;
  }
  if (nrefs == 1) {
    consume_single(g[0]);
    return;
  }
  bool pinned = true;
  for (std::size_t r = 0; r < nrefs; ++r) {
    if ((g[r].base >> shift_) != (g[r].at(count - 1) >> shift_)) {
      pinned = false;
      break;
    }
  }
  if (pinned) {
    consume_pinned_group(g, nrefs);
    return;
  }
  if (consume_disjoint_group(g, nrefs)) return;
  // Mixed-stride group: exact per-element decompression, iteration-major,
  // with next iteration's table entries prefetched.
  SDLO_EXPECTS(nrefs <= trace::kMaxLeafRefs);
  std::uint64_t addrs[trace::kMaxLeafRefs];
  for (std::size_t r = 0; r < nrefs; ++r) addrs[r] = g[r].base;
  for (std::uint64_t v = 0; v < count; ++v) {
    const bool more = v + 1 < count;
    for (std::size_t r = 0; r < nrefs; ++r) {
      const std::uint64_t a = addrs[r];
      addrs[r] = a + static_cast<std::uint64_t>(g[r].stride);
      if (more) __builtin_prefetch(&node_of_[addrs[r] >> shift_]);
      step(a >> shift_, g[r].site);
    }
  }
}

inline void MarkerStackEngine::move_to_top(std::int32_t ni) {
  const std::size_t k = caps_.size();
  Node& x = nodes_[static_cast<std::size_t>(ni)];
  const auto s = static_cast<std::size_t>(seg_[static_cast<std::size_t>(ni)]);
  // Rotating x to the top shifts positions 1..pos(x)-1 down by one: the
  // node sitting exactly on each boundary below x crosses it. The new
  // boundary node is its predecessor — or x itself when the boundary is
  // position 1 (cap[j] == 1) and the old boundary node was the head.
  for (std::size_t j = 0; j < s; ++j) {
    const auto m = static_cast<std::size_t>(markers_[j]);
    seg_[m] = static_cast<std::uint8_t>(j + 1);
    markers_[j] = nodes_[m].prev >= 0 ? nodes_[m].prev : ni;
  }
  // If x itself sat on boundary s, its predecessor shifts onto it.
  if (s < k && markers_[s] == ni) markers_[s] = x.prev;
  // Unlink (x is not the head, so x.prev exists).
  nodes_[static_cast<std::size_t>(x.prev)].next = x.next;
  if (x.next >= 0) {
    nodes_[static_cast<std::size_t>(x.next)].prev = x.prev;
  } else {
    tail_ = x.prev;
  }
  // Push front.
  x.prev = -1;
  x.next = head_;
  nodes_[static_cast<std::size_t>(head_)].prev = ni;
  head_ = ni;
  seg_[static_cast<std::size_t>(ni)] = 0;
}

std::int32_t MarkerStackEngine::step(std::uint64_t line, std::int32_t site) {
  const std::size_t k = caps_.size();
  std::int32_t ni = node_of_[line];
  if (ni == head_ && ni >= 0) {
    // Head hit: segment 0 by construction, rotation a no-op.
    ++buckets_[static_cast<std::size_t>(site) * ks_];
    return 0;
  }
  if (ni < 0) {  // cold: push a new node on top of the stack
    ni = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(Node{-1, head_});
    seg_.push_back(0);
    node_of_[line] = ni;
    if (head_ >= 0) nodes_[static_cast<std::size_t>(head_)].prev = ni;
    head_ = ni;
    if (tail_ < 0) tail_ = ni;
    ++size_;
    ++cold_by_site_[static_cast<std::size_t>(site)];
    if (hole_sink_ != nullptr) hole_sink_->push_back(Hole{line, site});
    // Every resident position grew by one: each boundary node crosses
    // into the next segment; stacks that just reached cap[j] gain their
    // marker at the tail.
    for (std::size_t j = 0; j < k; ++j) {
      if (markers_[j] >= 0) {
        const auto m = static_cast<std::size_t>(markers_[j]);
        seg_[m] = static_cast<std::uint8_t>(j + 1);
        markers_[j] = nodes_[m].prev;
      } else if (size_ == caps_[j]) {
        markers_[j] = tail_;
      }
    }
    return -1;
  }

  const std::int32_t s = seg_[static_cast<std::size_t>(ni)];
  // The access hits every capacity of segment >= s, misses every smaller
  // one; segment 0 (position <= smallest capacity) misses none.
  ++buckets_[static_cast<std::size_t>(site) * ks_ +
             static_cast<std::size_t>(s)];
  move_to_top(ni);
  return s;
}

void MarkerStackEngine::consume_single(const Run& run) {
  const std::uint64_t count = run.count;
  const std::uint64_t mag = static_cast<std::uint64_t>(
      run.stride < 0 ? -run.stride : run.stride);
  if (mag == 0) {
    step(run.base >> shift_, run.site);
    buckets_[static_cast<std::size_t>(run.site) * ks_] += count - 1;
    return;
  }
  if (mag < static_cast<std::uint64_t>(line_elems_)) {
    // Sub-line stride: collapse the consecutive same-line accesses
    // between line crossings.
    std::uint64_t v = 0;
    std::uint64_t a = run.base;
    while (v < count) {
      const std::uint64_t line = a >> shift_;
      std::uint64_t span;
      if (run.stride > 0) {
        span = (((line + 1) << shift_) - a + mag - 1) / mag;
      } else {
        span = (a - (line << shift_)) / mag + 1;
      }
      if (span > count - v) span = count - v;
      step(line, run.site);
      if (span > 1) {
        buckets_[static_cast<std::size_t>(run.site) * ks_] += span - 1;
      }
      v += span;
      a += span * static_cast<std::uint64_t>(run.stride);
    }
    return;
  }
  // Every element lands on a fresh line: batch-generate the line index
  // sequence, then step over the flat buffer with the address table
  // prefetched ahead.
  std::uint64_t lines[kLineBatch];
  std::uint64_t v = 0;
  while (v < count) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kLineBatch, count - v));
    fill_lines(run.base + v * static_cast<std::uint64_t>(run.stride),
               run.stride, shift_, lines, n);
    step_lines(lines, n, run.site);
    v += n;
  }
}

void MarkerStackEngine::consume_pinned_group(const Run* g,
                                             std::size_t nrefs) {
  SDLO_EXPECTS(nrefs <= trace::kMaxLeafRefs);
  const std::uint64_t count = g[0].count;
  for (std::size_t r = 0; r < nrefs; ++r) {
    step(g[r].base >> shift_, g[r].site);
  }
  std::int32_t segs[trace::kMaxLeafRefs];
  for (std::size_t r = 0; r < nrefs; ++r) {
    segs[r] = step(g[r].base >> shift_, g[r].site);
    SDLO_EXPECTS(segs[r] >= 0);  // iteration 0 touched every line
  }
  if (count == 2) return;
  for (std::size_t r = 0; r < nrefs; ++r) {
    buckets_[static_cast<std::size_t>(g[r].site) * ks_ +
             static_cast<std::size_t>(segs[r])] += count - 2;
  }
}

bool MarkerStackEngine::consume_disjoint_group(const Run* g,
                                               std::size_t nrefs) {
  const std::uint64_t count = g[0].count;
  if (count < 8) return false;
  bool dup[trace::kMaxLeafRefs];
  std::uint64_t lo[trace::kMaxLeafRefs];  // line range per non-dup ref
  std::uint64_t hi[trace::kMaxLeafRefs];
  std::size_t n_distinct = 0;
  for (std::size_t r = 0; r < nrefs; ++r) {
    dup[r] = r > 0 && g[r].base == g[r - 1].base &&
             g[r].stride == g[r - 1].stride;
    if (dup[r]) continue;
    const std::uint64_t first = g[r].base >> shift_;
    const std::uint64_t last = g[r].at(count - 1) >> shift_;
    const std::uint64_t mag = static_cast<std::uint64_t>(
        g[r].stride < 0 ? -g[r].stride : g[r].stride);
    if (first != last && mag < static_cast<std::uint64_t>(line_elems_)) {
      return false;  // line sequence revisits lines within the run
    }
    lo[r] = std::min(first, last);
    hi[r] = std::max(first, last);
    ++n_distinct;
  }
  if (n_distinct > 16) return false;
  for (std::size_t r = 0; r < nrefs; ++r) {
    if (dup[r]) continue;
    for (std::size_t q = r + 1; q < nrefs; ++q) {
      if (dup[q]) continue;
      if (lo[r] <= hi[q] && lo[q] <= hi[r]) return false;
    }
  }

  // Iteration 0 per element (duplicates are head hits at segment 0 and
  // are folded into their bulk term below).
  for (std::size_t r = 0; r < nrefs; ++r) {
    if (!dup[r]) step(g[r].base >> shift_, g[r].site);
  }
  // Bulk terms: duplicates hit segment 0 on every iteration; pinned refs
  // hit at depth n_distinct on iterations 1..count-1.
  const std::size_t pin_seg = segment_of_depth(caps_, n_distinct);
  bool moving[trace::kMaxLeafRefs];
  std::size_t n_moving = 0;
  for (std::size_t r = 0; r < nrefs; ++r) {
    if (dup[r]) {
      buckets_[static_cast<std::size_t>(g[r].site) * ks_] += count;
      moving[r] = false;
    } else if (lo[r] == hi[r]) {
      buckets_[static_cast<std::size_t>(g[r].site) * ks_ + pin_seg] +=
          count - 1;
      moving[r] = false;
    } else {
      moving[r] = true;
      ++n_moving;
    }
  }
  // Iterations 1..count-1: only the moving refs need stack surgery.
  if (n_moving == 1) {
    // One moving ref: its per-iteration line sequence is a flat strided
    // buffer — generate it in batches and step over each.
    std::size_t mr = 0;
    while (!moving[mr]) ++mr;
    std::uint64_t lines[kLineBatch];
    std::uint64_t v = 1;
    while (v < count) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kLineBatch, count - v));
      fill_lines(g[mr].at(v), g[mr].stride, shift_, lines, n);
      step_lines(lines, n, g[mr].site);
      v += n;
    }
  } else if (n_moving > 1) {
    std::uint64_t addrs[trace::kMaxLeafRefs];
    for (std::size_t r = 0; r < nrefs; ++r) {
      addrs[r] = g[r].at(1);
    }
    for (std::uint64_t v = 1; v < count; ++v) {
      const bool more = v + 1 < count;
      for (std::size_t r = 0; r < nrefs; ++r) {
        if (!moving[r]) continue;
        const std::uint64_t a = addrs[r];
        addrs[r] = a + static_cast<std::uint64_t>(g[r].stride);
        if (more) __builtin_prefetch(&node_of_[addrs[r] >> shift_]);
        step(a >> shift_, g[r].site);
      }
    }
  }
  // Silent replay of the final iteration restores the exact stack order.
  for (std::size_t r = 0; r < nrefs; ++r) {
    if (dup[r]) continue;
    const std::int32_t ni = node_of_[g[r].at(count - 1) >> shift_];
    SDLO_EXPECTS(ni >= 0);
    if (ni != head_) move_to_top(ni);
  }
  return true;
}

}  // namespace sdlo::cachesim
