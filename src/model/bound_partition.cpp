#include "model/bound_partition.hpp"

#include <algorithm>
#include <limits>

#include "support/string_util.hpp"

namespace sdlo::model {

BoundPartition bind_partition(const PartitionAnalysis& pa,
                              const sym::Env& full_env) {
  BoundPartition bp;
  for (const auto& [symbol, var] : pa.coords) {
    const std::int64_t extent = full_env.at(extent_symbol(var));
    const bool pivot = starts_with(symbol, "__x_");
    bp.domains.emplace_back(pivot ? 1 : 0, extent - 1);
    bp.coord_syms.push_back(symbol);
  }
  for (const auto& [array, boxes] : pa.boxes) {
    std::vector<Box> bound;
    bound.reserve(boxes.size());
    for (const auto& b : boxes) {
      Box nb;
      nb.dims.reserve(b.dims.size());
      for (const auto& iv : b.dims) {
        nb.dims.push_back(Interval{sym::substitute(iv.lo, full_env),
                                   sym::substitute(iv.hi, full_env)});
      }
      for (const auto& g : b.guards) {
        nb.guards.push_back(Interval{sym::substitute(g.lo, full_env),
                                     sym::substitute(g.hi, full_env)});
      }
      bound.push_back(std::move(nb));
    }
    bp.boxes.push_back(compile_boxes(bound, bp.coord_syms));
  }
  return bp;
}

namespace {

std::int64_t coeff_of(const AffineFn& fn, std::int32_t axis) {
  std::int64_t c = 0;
  for (const auto& [idx, coeff] : fn.terms) {
    if (idx == axis) c += coeff;
  }
  return c;
}

}  // namespace

std::int64_t affine_gap_bound(
    const AffineFn& a, const AffineFn& b,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& domains,
    bool maximize) {
  const std::int64_t overflow =
      maximize ? kInfDistance : std::numeric_limits<std::int64_t>::min();
  // Stack buffer: this runs once per guard per region in symbolic_sweep's
  // hot resolution loop, so no heap traffic for typical axis counts.
  std::int64_t small[32] = {};
  std::vector<std::int64_t> big;
  std::int64_t* net = small;
  if (domains.size() > 32) {
    big.assign(domains.size(), 0);
    net = big.data();
  }
  for (const auto& [idx, c] : a.terms) net[static_cast<std::size_t>(idx)] += c;
  for (const auto& [idx, c] : b.terms) net[static_cast<std::size_t>(idx)] -= c;
  std::int64_t m = 0;
  if (__builtin_sub_overflow(a.base, b.base, &m)) return overflow;
  for (std::size_t k = 0; k < domains.size(); ++k) {
    if (net[k] == 0) continue;
    const std::int64_t corner = (net[k] > 0) == maximize ? domains[k].second
                                                         : domains[k].first;
    std::int64_t t = 0;
    if (__builtin_mul_overflow(net[k], corner, &t) ||
        __builtin_add_overflow(m, t, &m)) {
      return overflow;
    }
  }
  return m;
}

namespace {

using Domains = std::vector<std::pair<std::int64_t, std::int64_t>>;

// max over the domains of (a - b) < 0, i.e. a < b everywhere.
bool provably_below(const AffineFn& a, const AffineFn& b, const Domains& d) {
  return affine_gap_bound(a, b, d, /*maximize=*/true) < 0;
}

// X is contained in Y at every coordinate assignment (as point sets: when
// X is nonempty, Y's bounds enclose it — and then Y is nonempty too).
bool geometrically_contained(const CompiledBox& x, const CompiledBox& y,
                             const Domains& dom) {
  for (std::size_t d = 0; d < x.dims.size(); ++d) {
    if (affine_gap_bound(y.dims[d].first, x.dims[d].first, dom, true) > 0 ||
        affine_gap_bound(x.dims[d].second, y.dims[d].second, dom, true) > 0) {
      return false;
    }
  }
  return true;
}

// Some guard of A and some guard of B provably cannot both be nonempty:
// the sum of their lengths-minus-one stays negative over the domain, so at
// least one interval is always empty whenever the other is not.
bool guards_contradict(const CompiledBox& a, const CompiledBox& b,
                       const Domains& dom) {
  for (const auto& ga : a.guards) {
    for (const auto& gb : b.guards) {
      AffineFn hi = ga.second;
      hi.base = sat_add(hi.base, gb.second.base);
      for (const auto& t : gb.second.terms) hi.terms.push_back(t);
      AffineFn lo = ga.first;
      lo.base = sat_add(lo.base, gb.first.base);
      for (const auto& t : gb.first.terms) lo.terms.push_back(t);
      if (provably_below(hi, lo, dom)) return true;
    }
  }
  return false;
}

bool dims_separated(const CompiledBox& a, const CompiledBox& b,
                    const Domains& dom) {
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    if (provably_below(a.dims[d].second, b.dims[d].first, dom) ||
        provably_below(b.dims[d].second, a.dims[d].first, dom)) {
      return true;
    }
  }
  return false;
}

// The negation of "interval (lo, hi) is nonempty": (hi + 1, lo) is
// nonempty exactly when hi < lo.
std::pair<AffineFn, AffineFn> negated_guard(
    const std::pair<AffineFn, AffineFn>& g) {
  AffineFn lo = g.second;
  lo.base = sat_add(lo.base, 1);
  return {std::move(lo), g.first};
}

}  // namespace

std::vector<std::vector<bool>> invariant_axes_by_array(
    const BoundPartition& bp) {
  std::vector<std::vector<bool>> invariant(
      bp.boxes.size(), std::vector<bool>(bp.coord_syms.size(), true));
  for (std::size_t a = 0; a < bp.boxes.size(); ++a) {
    const auto& boxes = bp.boxes[a];
    for (std::size_t k = 0; k < bp.coord_syms.size(); ++k) {
      const auto axis = static_cast<std::int32_t>(k);
      bool ok = true;
      for (std::size_t d = 0; ok; ++d) {
        bool any = false;
        bool have_shift = false;
        std::int64_t shift = 0;
        for (const auto& box : boxes) {
          if (d >= box.dims.size()) continue;
          any = true;
          const std::int64_t lo_c = coeff_of(box.dims[d].first, axis);
          const std::int64_t hi_c = coeff_of(box.dims[d].second, axis);
          // The interval must keep its length and every box of this array
          // must shift by the same amount per unit step of the axis.
          if (lo_c != hi_c || (have_shift && lo_c != shift)) {
            ok = false;
            break;
          }
          have_shift = true;
          shift = lo_c;
        }
        if (!any) break;  // past the widest box of this array
      }
      if (ok) {
        for (const auto& box : boxes) {
          for (const auto& g : box.guards) {
            // A guard only gates its box through emptiness: the length
            // must be invariant, the position is free to drift.
            if (coeff_of(g.first, axis) != coeff_of(g.second, axis)) {
              ok = false;
              break;
            }
          }
          if (!ok) break;
        }
      }
      invariant[a][k] = ok;
    }
  }
  return invariant;
}

std::optional<std::vector<CompiledBox>> disjoint_decomposition(
    const std::vector<CompiledBox>& boxes,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& domains) {
  if (boxes.size() <= 1) return boxes;
  // The per-box cardinality sum only equals the union cardinality when no
  // two boxes can ever share a point. Ragged or zero-rank decompositions
  // fall back to the union counter (which collapses all scalar boxes onto
  // one point — a shape the sum cannot reproduce).
  const std::size_t rank = boxes.front().dims.size();
  if (rank == 0) return std::nullopt;
  for (const auto& b : boxes) {
    if (b.dims.size() != rank) return std::nullopt;
  }
  // Deferral pass, computed entirely from the *original* boxes: box i
  // keeps a point only if no containing box j claims it first. When j is
  // always active i is redundant; when j's activity is a single guard,
  // conjoining its negation onto i removes exactly the overlap. Mutual
  // containment (identical bounds) is oriented later-defers-to-earlier.
  // Every edge only shrinks i, and a shrunk i still covers any point no
  // container actively covers, so the union is preserved; the certificate
  // below then rules out any remaining double counting.
  std::vector<bool> alive(boxes.size(), true);
  std::vector<CompiledBox> out = boxes;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = 0; j < boxes.size(); ++j) {
      if (i == j || !geometrically_contained(boxes[i], boxes[j], domains)) {
        continue;
      }
      if (geometrically_contained(boxes[j], boxes[i], domains) && j > i) {
        continue;  // tie: the earlier box wins
      }
      if (boxes[j].guards.empty()) {
        alive[i] = false;
        break;
      }
      if (boxes[j].guards.size() == 1) {
        out[i].guards.push_back(negated_guard(boxes[j].guards.front()));
      }
      // Multi-guard containers cannot be negated conjunctively; the pair
      // stays overlapping and the certificate below rejects the result.
    }
  }
  std::vector<CompiledBox> kept;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    if (!alive[i]) continue;
    bool never_active = false;
    for (const auto& g : out[i].guards) {
      if (provably_below(g.second, g.first, domains)) {
        never_active = true;
        break;
      }
    }
    if (!never_active) kept.push_back(std::move(out[i]));
  }
  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t j = i + 1; j < kept.size(); ++j) {
      if (!dims_separated(kept[i], kept[j], domains) &&
          !guards_contradict(kept[i], kept[j], domains)) {
        return std::nullopt;
      }
    }
  }
  return kept;
}

std::int64_t box_cardinality(const CompiledBox& box,
                             std::span<const std::int64_t> coords) {
  for (const auto& [lo, hi] : box.guards) {
    if (hi.eval(coords) < lo.eval(coords)) return 0;
  }
  std::int64_t card = 1;
  for (const auto& [lo, hi] : box.dims) {
    const std::int64_t len = hi.eval(coords) - lo.eval(coords) + 1;
    if (len <= 0) return 0;
    card = sat_mul(card, len);
  }
  return card;
}

}  // namespace sdlo::model
