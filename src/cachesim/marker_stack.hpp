// Marker-augmented LRU stack engine.
//
// One pass over a trace, exact hit segments for every capacity of one
// line-size group (Mattson's inclusion property): the stack is a
// doubly-linked list over an arena; markers[j] pins the node at stack
// position cap[j]; a dense side array carries, per node, the index of the
// capacity segment its position falls in, so one dense-table load
// classifies an access against all capacities and each stack rotation
// touches only the boundary nodes. The address map is direct-indexed: line
// indices are dense in [0, footprint_lines).
//
// This is the engine behind the streamed sweep (parallel_stack.hpp), the
// only place it is constructed: one engine per trace chunk. For
// partitioning the engine exposes two hooks:
//
//  * a hole sink — every cold access (first touch of a line *within the fed
//    prefix*) is appended, in program order, as a (line, site) Hole. For a
//    chunk, a hole's reuse source may lie in an earlier chunk; the merge
//    pass resolves it to its exact global depth. Every other access's
//    segment is globally exact already, because its whole reuse window lies
//    inside the chunk.
//  * recency_order() — the resident lines in final last-access order. The
//    bulk fast paths preserve this order exactly (the disjoint-group path
//    ends with a silent replay that restores it), so the merge pass can
//    extend its boundary structure with each chunk's lines in true global
//    order.
//
// Run groups are classified in bulk where the stack provably repeats:
//  * a single-run group whose tail stays on one line (stride 0, or
//    |stride| < line_elems between line crossings) — every access after
//    the first hits the head of the stack, i.e. segment 0, and leaves the
//    stack untouched;
//  * a "pinned" group, every member run confined to one line — after the
//    first full iteration the stack's top-of-stack order is the group's
//    last-occurrence order, a fixed point of the iteration, so each
//    reference's stack distance (hence segment) is identical for every
//    iteration >= 1: simulate iterations 0 and 1 per element, then
//    bulk-account the remaining count-2 repeats;
//  * a disjoint mixed group — see consume_disjoint_group.
// Anything else decompresses to exact per-element steps; a strided run's
// line index sequence is batch-generated into a flat buffer so the stack
// walk can prefetch ahead of it.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/results.hpp"
#include "trace/walker.hpp"

namespace sdlo::cachesim {

/// Estimated bytes per footprint line of the engine's dense tables, used to
/// size MemoryBudget reservations: node_of_ (int32) + Node (2x int32) +
/// seg_ (uint8).
inline constexpr std::uint64_t kStackBytesPerLine = 13;

/// A cold access recorded for cross-chunk resolution: the first touch of
/// `line` within the fed prefix, attributed to access site `site`. Holes
/// are recorded in program order.
struct Hole {
  std::uint64_t line = 0;
  std::int32_t site = 0;
};

/// Segment index of a stack depth against ascending capacities `caps`: the
/// number of capacities < depth.
std::size_t segment_of_depth(const std::vector<std::int64_t>& caps,
                             std::uint64_t depth);

/// Folds per-site segment hit counts into one SimResult per capacity:
/// `slots[r]` lists the `out` entries the r-th of the k = slots.size()
/// ascending capacities answers, and its misses are each site's cold
/// accesses plus its hits deeper than that capacity (segments r+1 .. k).
/// `buckets` is row-major [site][segment] with k + 1 segments per row, the
/// MarkerStackEngine layout.
void fold_segments(const std::vector<std::uint64_t>& buckets,
                   const std::vector<std::uint64_t>& cold_by_site,
                   std::uint64_t accesses, Completeness completeness,
                   const std::vector<std::vector<std::size_t>>& slots,
                   std::vector<SimResult>& out);

class MarkerStackEngine {
 public:
  /// `caps_lines` are the distinct capacities in lines, ascending.
  /// `footprint_lines` is the exact dense address-table size
  /// (CompiledProgram::footprint_lines). A non-null `hole_sink` receives
  /// every cold access in program order.
  MarkerStackEngine(std::vector<std::int64_t> caps_lines,
                    std::int64_t line_elems, std::int32_t num_sites,
                    std::uint64_t footprint_lines,
                    std::vector<Hole>* hole_sink = nullptr);

  void consume_runs(const trace::Run* g, std::size_t nrefs);

  /// Accesses fed so far.
  std::uint64_t accesses() const { return accesses_; }

  /// Hit counts, row-major [site][segment]; row stride is caps.size() + 1.
  /// Segment s counts hits at stack depth d with caps[s-1] < d <= caps[s]
  /// (the last segment: deeper than every capacity).
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// Cold (first-touch) accesses per site. With a hole sink attached these
  /// are the per-site hole counts, to be re-resolved by the merge pass.
  const std::vector<std::uint64_t>& cold_by_site() const {
    return cold_by_site_;
  }

  /// The resident lines in last-access order, oldest (LRU) first. Exact:
  /// every bulk path preserves the true final stack order.
  std::vector<std::uint64_t> recency_order() const;

 private:
  struct Node {
    std::int32_t prev = -1;  // towards the MRU end
    std::int32_t next = -1;  // towards the LRU end
  };

  std::int32_t step(std::uint64_t line, std::int32_t site);
  /// Rotates resident node `ni` (not the head) to the top of the stack,
  /// moving each capacity boundary it passes; the one stack rotation of
  /// step()'s hit path and of the disjoint-group replay.
  void move_to_top(std::int32_t ni);
  void consume_single(const trace::Run& run);
  void consume_pinned_group(const trace::Run* g, std::size_t nrefs);
  bool consume_disjoint_group(const trace::Run* g, std::size_t nrefs);
  void step_lines(const std::uint64_t* lines, std::size_t n,
                  std::int32_t site);

  std::vector<std::int64_t> caps_;  // ascending, in lines
  std::int64_t line_elems_;
  int shift_;
  std::int32_t num_sites_;
  std::size_t ks_;  // bucket row stride: caps_.size() + 1 segments

  std::vector<Node> nodes_;
  std::vector<std::uint8_t> seg_;  // per-node capacity segment (parallel)
  std::int32_t head_ = -1;
  std::int32_t tail_ = -1;
  std::int64_t size_ = 0;
  std::vector<std::int32_t> markers_;

  std::vector<std::int32_t> node_of_;  // dense line -> node index, -1 empty

  std::vector<std::uint64_t> buckets_;  // [site][segment] hit-at counts
  std::vector<std::uint64_t> cold_by_site_;
  std::uint64_t accesses_ = 0;
  std::vector<Hole>* hole_sink_ = nullptr;
};

}  // namespace sdlo::cachesim
