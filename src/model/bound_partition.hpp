// Concrete (environment-bound) form of an analyzed partition.
//
// The model's evaluator, symbolic_sweep, and the Monte Carlo estimate that
// predict_at runs on a partition the sweep cannot make exact walk the same
// structure: the partition's window boxes with the size environment
// substituted in and every interval bound compiled to an affine function of
// the partition's coordinate vector. This module is that binding step.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "model/analyzer.hpp"
#include "model/compiled_eval.hpp"
#include "support/checked_math.hpp"

namespace sdlo::model {

/// Per-partition evaluation context: bounds pre-substituted with the size
/// environment and compiled to affine functions of the coordinate vector.
struct BoundPartition {
  std::vector<std::vector<CompiledBox>> boxes;  // per array
  // Coordinate domains, aligned with coord_syms: [lo, hi] inclusive.
  std::vector<std::pair<std::int64_t, std::int64_t>> domains;
  std::vector<std::string> coord_syms;
  UnionCounter counter;

  /// Stack depth at one coordinate assignment: the sum over arrays of the
  /// exact union cardinality of that array's boxes.
  std::int64_t depth_at(std::span<const std::int64_t> values) {
    std::int64_t depth = 0;
    for (const auto& b : boxes) {
      depth = sat_add(depth, counter.count(b, values));
    }
    return depth;
  }
};

/// Binds `pa` under `full_env` (user symbols + extent aliases; see
/// SymbolTable::bind_extents). The partition must not be cold.
BoundPartition bind_partition(const PartitionAnalysis& pa,
                              const sym::Env& full_env);

/// Per-array translation invariance: `out[a][k]` is true when the union
/// cardinality of array `a`'s boxes provably does not depend on coordinate
/// axis k — every box dimension of that array shifts uniformly as k steps
/// (the k-coefficient is the same in the lower and upper bound and the
/// same across the array's boxes for that dimension), and every guard
/// interval keeps its length (equal k-coefficients in its two bounds).
/// Shifting k then translates the array's whole box union, so its
/// cardinality is unchanged. This is the closed-form core of the paper's
/// translation-invariant windows, made checkable per axis. Since the depth
/// is the sum of per-array union cardinalities, arrays with disjoint
/// dependent axis sets vary independently — symbolic_sweep exploits this
/// to enumerate each connected component of axes separately and convolve
/// the component histograms, turning a product of extents into a sum.
std::vector<std::vector<bool>> invariant_axes_by_array(
    const BoundPartition& bp);

/// Maximum (maximize=true) or minimum of (a - b) over `domains`, by corner
/// evaluation of the net per-axis coefficient. Saturates to +/-kInfDistance
/// on arithmetic overflow, which callers must treat as "unknown".
std::int64_t affine_gap_bound(
    const AffineFn& a, const AffineFn& b,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& domains,
    bool maximize);

/// Attempts to rewrite `boxes` as a provably pairwise-disjoint box set with
/// the same union at every coordinate assignment in `domains`. Overlap is
/// removed by deferral: a box geometrically contained in an always-active
/// box is dropped, and one contained in a single-guard box is narrowed by
/// that guard's negation (the guard interval reversed), so each point is
/// kept by exactly one surviving active box. The result is returned only
/// if every surviving pair is then *certified* disjoint — a dimension
/// whose intervals provably never overlap, or a pair of guards that
/// provably cannot both be nonempty (affine corner checks). Returns
/// nullopt when no certificate is found; the union counter must be used.
/// Narrowing only ever shrinks boxes and the certificate rules out double
/// counting, so a returned decomposition is exact, not heuristic.
std::optional<std::vector<CompiledBox>> disjoint_decomposition(
    const std::vector<CompiledBox>& boxes,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& domains);

/// Cardinality of one disjoint-decomposition box at `coords`: 0 when any
/// guard or dimension is empty, otherwise the product of dimension
/// lengths (saturating).
std::int64_t box_cardinality(const CompiledBox& box,
                             std::span<const std::int64_t> coords);

}  // namespace sdlo::model
