// Fast numeric evaluation of bound partitions.
//
// symbolic_sweep() may evaluate a partition's stack depth (or one term of it)
// for up to millions of coordinate assignments. Going through sym::evaluate with a std::map
// environment per combination costs microseconds; this module precompiles
// every interval bound into an affine form over the partition's coordinate
// vector (bounds are affine by construction: they are point coordinates
// shifted by +-1 or extents minus one), and provides an allocation-free
// union counter. Per-combination cost drops to tens of nanoseconds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/window.hpp"
#include "symbolic/expr.hpp"

namespace sdlo::model {

/// value = base + sum(coeff_i * coords[index_i]).
struct AffineFn {
  std::int64_t base = 0;
  std::vector<std::pair<std::int32_t, std::int64_t>> terms;

  std::int64_t eval(std::span<const std::int64_t> coords) const {
    std::int64_t v = base;
    for (const auto& [idx, coeff] : terms) {
      v += coeff * coords[static_cast<std::size_t>(idx)];
    }
    return v;
  }
};

/// Compiles `e` (whose free symbols must all be in `coord_syms`) into an
/// affine function; throws sdlo::Error if `e` is not affine in them.
AffineFn compile_affine(const sym::Expr& e,
                        const std::vector<std::string>& coord_syms);

/// A Box with compiled bounds.
struct CompiledBox {
  std::vector<std::pair<AffineFn, AffineFn>> dims;    // (lo, hi)
  std::vector<std::pair<AffineFn, AffineFn>> guards;  // (lo, hi)
};

/// Compiles every bound of `boxes` over the coordinate vector order given
/// by `coord_syms`.
std::vector<CompiledBox> compile_boxes(
    const std::vector<Box>& boxes,
    const std::vector<std::string>& coord_syms);

/// Allocation-free exact union cardinality counter (reusable scratch).
class UnionCounter {
 public:
  /// Counts the union of `boxes` evaluated at `coords`; boxes with an empty
  /// guard or an empty dimension are skipped. Zero-dimensional boxes count
  /// as one point.
  std::int64_t count(const std::vector<CompiledBox>& boxes,
                     std::span<const std::int64_t> coords);

 private:
  struct Level {
    std::vector<std::int64_t> cuts;
    std::vector<std::int32_t> active;
  };
  std::int64_t recurse(std::size_t dim, std::size_t ndims,
                       std::span<const std::int32_t> active);

  // Evaluated (lo,hi) per box per dim, laid out [box][dim].
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> eval_;
  std::vector<Level> levels_;
};

}  // namespace sdlo::model
