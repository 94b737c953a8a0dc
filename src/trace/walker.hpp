// Reference-trace generation.
//
// CompiledProgram lowers a validated ir::Program plus a concrete binding of
// its symbols into a flat execution plan, then streams every array access in
// program order to a caller-provided sink. This is the substitute for the
// paper's SimpleScalar memory traces: the trace of the IR *is* the trace of
// the loop nest the model analyzes, at array-element granularity.
//
// Addresses are element indices into a single flat address space; each array
// occupies a contiguous base..base+size-1 block (row-major, tiled subscript
// pairs composed in mixed radix), so distinct elements <=> distinct
// addresses, which is the identity the stack-distance model uses.
//
// Two sink shapes are supported:
//  * walk_runs(sink)     — sink(const Run*, std::size_t nrefs) over
//    *run groups*: the run-compressed form of the trace, and the one every
//    simulation engine consumes. A leaf-flattened innermost loop is
//    delivered as one group of `nrefs` constant-stride runs sharing a
//    common iteration count — one record per reference per leaf-loop
//    execution — instead of `count * nrefs` materialized Access structs. A
//    plain statement is a group with count == 1 (the generic fallback for
//    bodies the leaf flattener declines, e.g. more than kMaxLeafRefs
//    references). Decompression order of a group is iteration-major: for v
//    in [0, count): for r in [0, nrefs): access(base_r + v*stride_r), which
//    is exactly the program order of the interleaved loop body.
//  * walk(sink)          — sink(const Access&) per access: walk_runs()
//    decompressed in that order. The naive reference simulators
//    (simulate_lru, simulate_lru_lines, simulate_set_assoc) and
//    `sdlo trace` use it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/program.hpp"
#include "support/check.hpp"
#include "symbolic/expr.hpp"

namespace sdlo::trace {

/// One memory access in the trace.
struct Access {
  std::uint64_t addr = 0;
  ir::AccessMode mode = ir::AccessMode::kRead;
  /// Global index of the access site (see CompiledProgram::site_of).
  std::int32_t site = 0;
};

/// One constant-stride run of the compressed trace: `count` accesses at
/// base, base + stride, ..., base + (count-1)*stride, all from one access
/// site. Runs are delivered in *groups* (see walk_runs) whose members share
/// a common count and execute interleaved, iteration-major.
struct Run {
  std::uint64_t base = 0;
  std::int64_t stride = 0;
  std::uint64_t count = 1;
  ir::AccessMode mode = ir::AccessMode::kRead;
  std::int32_t site = 0;

  /// Address of the v-th access of the run (addresses wrap mod 2^64, same
  /// as the incremental generator).
  std::uint64_t at(std::uint64_t v) const {
    return base + v * static_cast<std::uint64_t>(stride);
  }
};

/// Leaf-loop flattening covers statement bodies of up to this many
/// references; larger bodies fall back to the generic count-1 run path.
inline constexpr std::size_t kMaxLeafRefs = 32;

/// A Program bound to concrete sizes, lowered for fast iteration.
class CompiledProgram {
 public:
  /// Binds `prog` (validated) with `env` covering every free symbol.
  /// Extents must evaluate to positive values.
  CompiledProgram(const ir::Program& prog, const sym::Env& env);

  /// Calls `sink(const Run* group, std::size_t nrefs)` with successive
  /// program-order run groups (see the file comment for the decompression
  /// contract). All runs of a group share the same `count`. Re-entrant and
  /// const: concurrent walks of the same CompiledProgram are safe.
  template <typename GroupSink>
  void walk_runs(GroupSink&& sink) const {
    walk_runs_range(0, total_groups_, sink);
  }

  /// Calls `sink(const Access&)` for every access in program order: each
  /// run group of walk_runs() decompressed iteration-major.
  template <typename Sink>
  void walk(Sink&& sink) const {
    walk_runs([&sink](const Run* group, std::size_t nrefs) {
      const std::uint64_t count = group[0].count;
      for (std::uint64_t v = 0; v < count; ++v) {
        for (std::size_t r = 0; r < nrefs; ++r) {
          sink(Access{group[r].at(v), group[r].mode, group[r].site});
        }
      }
    });
  }

  /// Calls `sink(const Run* group, std::size_t nrefs)` for run groups
  /// [first_group, first_group + num_groups) of the full walk_runs()
  /// sequence, skipping whole plan subtrees analytically (cost is
  /// O(plan depth), not O(first_group)). The emitted groups are
  /// bit-identical to the corresponding slice of walk_runs(). This is the
  /// time-partitioning primitive: a worker owns a contiguous group range.
  template <typename GroupSink>
  void walk_runs_range(std::uint64_t first_group, std::uint64_t num_groups,
                       GroupSink&& sink) const {
    std::vector<std::int64_t> values(static_cast<std::size_t>(num_slots_),
                                     0);
    std::vector<Run> group;
    group.reserve(kMaxLeafRefs);
    RangeState st{first_group, num_groups};
    for (const auto& op : top_) {
      if (st.emit == 0) break;
      run_runs_range(op, values, group, sink, st);
    }
  }

  /// Total number of run groups walk_runs() will deliver.
  std::uint64_t group_count() const { return total_groups_; }

  /// Index of the run group containing the access with global program-order
  /// index `access_index` (< total_accesses()). O(plan depth): used to turn
  /// an access-count partition target into a group-boundary partition
  /// without scanning groups.
  std::uint64_t group_of_access(std::uint64_t access_index) const;

  /// Total number of accesses the walk will produce.
  std::uint64_t total_accesses() const { return total_accesses_; }

  /// Base address of an array.
  std::uint64_t array_base(const std::string& array) const;

  /// Number of elements of an array.
  std::uint64_t array_elements(const std::string& array) const;

  /// One past the largest address (total footprint in elements).
  std::uint64_t address_space_size() const { return next_base_; }

  /// Number of distinct cache lines the footprint spans at `line_elems`
  /// granularity (a power of two): the exact size of a dense table indexed
  /// by addr >> log2(line_elems).
  std::uint64_t footprint_lines(std::int64_t line_elems) const;

  /// Global access-site index for (statement node, access position); sites
  /// are numbered in program order of their statements.
  std::int32_t site_of(ir::NodeId stmt, int access) const;

  /// Number of access sites.
  std::int32_t num_sites() const { return num_sites_; }

 private:
  struct PlanRef {
    std::uint64_t base = 0;
    // addr = base + sum(values[slot] * stride)
    std::vector<std::pair<std::int32_t, std::int64_t>> terms;
    ir::AccessMode mode = ir::AccessMode::kRead;
    std::int32_t site = 0;
  };

  /// One reference of a flattened innermost loop: addr(v) = addr0(outer
  /// values) + v * inner_stride, where v is the leaf-loop variable.
  struct LeafRef {
    std::uint64_t base = 0;
    std::vector<std::pair<std::int32_t, std::int64_t>> outer_terms;
    std::int64_t inner_stride = 0;
    ir::AccessMode mode = ir::AccessMode::kRead;
    std::int32_t site = 0;
  };

  struct PlanOp {
    // extent < 0 marks a statement op; otherwise a loop over [0, extent).
    std::int64_t extent = -1;
    std::int32_t slot = -1;
    std::vector<PlanOp> body;         // loop body
    std::vector<PlanRef> refs;        // statement refs
    std::vector<LeafRef> leaf_refs;   // non-empty: flattened innermost loop
    // Cached per single execution of this op (filled after leaf
    // flattening): run groups emitted and accesses produced.
    std::uint64_t groups = 0;
    std::uint64_t accesses = 0;
  };

  struct RangeState {
    std::uint64_t skip = 0;  // groups still to skip before emitting
    std::uint64_t emit = 0;  // groups still to emit
  };

  /// Emits the one run group of a statement op or a flattened leaf loop.
  template <typename GroupSink>
  void emit_group(const PlanOp& op, const std::vector<std::int64_t>& values,
                  std::vector<Run>& group, GroupSink& sink) const {
    group.clear();
    if (op.extent < 0) {
      for (const auto& ref : op.refs) {
        std::uint64_t addr = ref.base;
        for (const auto& [slot, stride] : ref.terms) {
          addr += static_cast<std::uint64_t>(values[
                      static_cast<std::size_t>(slot)] * stride);
        }
        group.push_back(Run{addr, 0, 1, ref.mode, ref.site});
      }
    } else {
      // Flattened innermost loop: one run per reference, the subscript
      // dot-product hoisted into the run base.
      for (const LeafRef& lr : op.leaf_refs) {
        std::uint64_t a = lr.base;
        for (const auto& [slot, stride] : lr.outer_terms) {
          a += static_cast<std::uint64_t>(values[
                   static_cast<std::size_t>(slot)] * stride);
        }
        group.push_back(Run{a, lr.inner_stride,
                            static_cast<std::uint64_t>(op.extent), lr.mode,
                            lr.site});
      }
    }
    sink(static_cast<const Run*>(group.data()), group.size());
  }

  /// Range walk: skip whole subtrees while st.skip covers them, emit until
  /// st.emit hits zero. A loop op divides st.skip by its per-iteration
  /// group count to jump straight to the first contributing iteration.
  template <typename GroupSink>
  void run_runs_range(const PlanOp& op, std::vector<std::int64_t>& values,
                      std::vector<Run>& group, GroupSink& sink,
                      RangeState& st) const {
    if (st.emit == 0) return;
    if (st.skip >= op.groups) {
      st.skip -= op.groups;
      return;
    }
    if (op.extent < 0 || !op.leaf_refs.empty()) {
      // Single-group op and st.skip < op.groups == 1, so st.skip == 0.
      emit_group(op, values, group, sink);
      --st.emit;
      return;
    }
    const auto extent = static_cast<std::uint64_t>(op.extent);
    const std::uint64_t per_iter = op.groups / extent;
    auto& v = values[static_cast<std::size_t>(op.slot)];
    std::int64_t start = 0;
    if (per_iter > 0) {
      const std::uint64_t k = st.skip / per_iter;
      st.skip -= k * per_iter;
      start = static_cast<std::int64_t>(k);
    }
    for (v = start; v < op.extent; ++v) {
      for (const auto& child : op.body) {
        run_runs_range(child, values, group, sink, st);
        if (st.emit == 0) return;
      }
    }
    v = 0;
  }

  PlanOp lower(const ir::Program& prog, ir::NodeId node, const sym::Env& env,
               std::vector<std::pair<std::string, std::int32_t>>& slot_of);
  static void flatten_leaves(PlanOp& op);
  static void fill_counts(PlanOp& op);

  std::vector<PlanOp> top_;
  std::int32_t num_slots_ = 0;
  std::int32_t num_sites_ = 0;
  std::uint64_t next_base_ = 0;
  std::uint64_t total_accesses_ = 0;
  std::uint64_t total_groups_ = 0;
  // Sorted by name; binary-searched (the fuzzer compiles thousands of
  // programs, so the compile path avoids node-based maps).
  std::vector<std::pair<std::string, std::uint64_t>> base_of_;
  std::vector<std::pair<std::string, std::uint64_t>> elements_of_;
  // Sorted by statement node id.
  std::vector<std::pair<ir::NodeId, std::int32_t>> first_site_of_stmt_;
};

}  // namespace sdlo::trace
