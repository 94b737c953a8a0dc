#include "model/symbolic_sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "model/analyzer.hpp"
#include "model/bound_partition.hpp"
#include "support/check.hpp"
#include "support/checked_math.hpp"
#include "support/rng.hpp"

namespace sdlo::model {

cachesim::ProfileResult SymbolicSweep::profile() const {
  cachesim::ProfileResult r;
  r.accesses = static_cast<std::uint64_t>(accounted_accesses);
  r.cold = cold;
  r.completeness = completeness;
  r.line_elems = 1;
  r.histogram = histogram;
  r.cold_by_site = cold_by_site;
  r.histogram_by_site = histogram_by_site;
  return r;
}

std::uint64_t SymbolicSweep::misses_at(std::int64_t capacity) const {
  return cachesim::misses_from_histogram(histogram, cold, capacity);
}

cachesim::SimResult SymbolicSweep::result_at(std::int64_t capacity) const {
  cachesim::SimResult r;
  r.accesses = static_cast<std::uint64_t>(accounted_accesses);
  r.completeness = completeness;
  r.misses = cachesim::misses_from_histogram(histogram, cold, capacity);
  r.misses_by_site.resize(histogram_by_site.size());
  for (std::size_t s = 0; s < histogram_by_site.size(); ++s) {
    r.misses_by_site[s] = cachesim::misses_from_histogram(
        histogram_by_site[s], cold_by_site[s], capacity);
  }
  return r;
}

std::vector<std::int64_t> SymbolicSweep::crossing_points() const {
  std::vector<std::int64_t> out;
  out.reserve(histogram.size());
  for (const auto& [depth, n] : histogram) {
    (void)n;
    out.push_back(depth);
  }
  return out;  // std::map keys are already sorted and distinct
}

namespace {

/// Random interior samples (beside corners and center) used to detect
/// constant-depth partitions that are too large to enumerate.
constexpr int kProbeSamples = 16;

/// The budget's charge for one histogram entry (std::map node, key, count
/// and the allocator's header), and the block the charge grows by.
constexpr std::uint64_t kEntryBytes = 64;
constexpr std::uint64_t kBlockBytes = kEntryBytes << 10;

/// Adds `n` to `m[key]`. A key not yet in `m` is inserted only when
/// `room(m.size() + 1)` allows that many entries; false when it did not.
template <class Room>
bool add_count(std::map<std::int64_t, std::uint64_t>& m, std::int64_t key,
               std::uint64_t n, const Room& room) {
  const auto it = m.lower_bound(key);
  if (it != m.end() && it->first == key) {
    it->second += n;
    return true;
  }
  if (!room(m.size() + 1)) return false;
  m.emplace_hint(it, key, n);
  return true;
}

/// Merges one completed partition curve into the sweep aggregates. Called
/// only after the partition finished evaluating, so a Governor stop never
/// leaves a half-merged histogram behind.
void merge_curve(SymbolicSweep& out, const PartitionCurve& pc) {
  const auto site = static_cast<std::size_t>(pc.site);
  const auto n = static_cast<std::uint64_t>(pc.count);
  if (pc.cold) {
    out.cold += n;
    out.cold_by_site[site] += n;
  } else {
    for (const auto& [depth, c] : pc.depth_counts) {
      out.histogram[depth] += c;
      out.histogram_by_site[site][depth] += c;
    }
  }
  out.accounted_accesses += pc.count;
}

}  // namespace

SymbolicSweep symbolic_sweep(const Analysis& an, const sym::Env& env,
                             const SymbolicSweepOptions& opts,
                             const Governor* gov) {
  const ir::Program& prog = *an.prog;
  const sym::Env full_env = an.symtab.bind_extents(env);
  const std::uint64_t poll_every =
      gov != nullptr && gov->poll_interval > 0 ? gov->poll_interval : 1024;

  SymbolicSweep out;
  out.total_accesses = sym::evaluate(prog.total_accesses(), env);
  std::int32_t nsites = 0;
  for (ir::NodeId s : prog.statements_in_order()) {
    nsites += static_cast<std::int32_t>(prog.statement(s).accesses.size());
  }
  out.cold_by_site.assign(static_cast<std::size_t>(nsites), 0);
  out.histogram_by_site.resize(static_cast<std::size_t>(nsites));
  // `kept` counts the histogram entries of the finished partitions and
  // the aggregates; fits() grows the charge to cover them plus the
  // in-flight partition's entries before a new one is made.
  MemoryBudget* const budget = gov != nullptr ? gov->memory : nullptr;
  out.charge = MemoryReservation(budget, 0);
  std::uint64_t kept = 0;
  const auto fits = [&out, &kept, budget](std::uint64_t in_flight) {
    if (budget == nullptr) return true;
    while ((kept + in_flight) * kEntryBytes > out.charge.bytes()) {
      if (!out.charge.grow(kBlockBytes)) return false;
    }
    return true;
  };

  for (std::size_t pi = 0; pi < an.parts.size(); ++pi) {
    if (governor_should_stop(gov)) {
      out.completeness = Completeness::kTruncated;
      break;
    }
    const PartitionAnalysis& pa = an.parts[pi];
    PartitionCurve pc;
    pc.part_index = pi;
    pc.site = site_index(prog, pa.part.target);
    pc.count = sym::evaluate(pa.part.count, full_env);
    if (pc.count == 0) continue;

    if (pa.part.divergence == Divergence::kCold) {
      pc.cold = true;
      merge_curve(out, pc);
      out.parts.push_back(std::move(pc));
      continue;
    }

    BoundPartition bp = bind_partition(pa, full_env);

    std::int64_t combos = 1;
    bool dead = false;
    for (const auto& [lo, hi] : bp.domains) {
      if (hi < lo) {
        dead = true;  // e.g. pivot of an extent-1 loop (count says 0 too)
        break;
      }
      combos = sat_mul(combos, hi - lo + 1);
    }
    if (dead) continue;

    // Reduction: rewrite the depth as a sum of independent *terms*. When
    // an array's reuse window admits a certified disjoint decomposition,
    // the union collapses to a per-box cardinality sum and each box
    // becomes its own term, depending only on the axes that change its
    // cardinality — axes that merely shift its position drop out
    // entirely. Arrays whose decomposition cannot be certified keep a
    // single union-counter term with the array-level translation-
    // invariance certificate. Axes appearing in no term fold into a pure
    // multiplicity; the rest split into connected components (two axes
    // join when a term depends on both), each enumerated separately — the
    // full cross product is never walked, its histogram is the
    // convolution of the component histograms.
    struct Term {
      const std::vector<CompiledBox>* array = nullptr;  // union-counter term
      const CompiledBox* box = nullptr;  // disjoint-decomposition term
      std::vector<std::size_t> axes;      // all axes the value depends on
      std::vector<std::size_t> dim_axes;  // via dimension lengths only
      std::vector<std::vector<std::size_t>> guard_axes;  // per guard
    };
    const std::size_t naxes = bp.domains.size();
    // Marks axes with a nonzero net coefficient in (hi - lo): the axes
    // that change the interval's *length* rather than its position.
    const auto mark_net = [naxes](const std::pair<AffineFn, AffineFn>& b,
                                  std::vector<bool>& ax) {
      std::vector<std::int64_t> net(naxes, 0);
      for (const auto& [idx, c] : b.second.terms) {
        net[static_cast<std::size_t>(idx)] += c;
      }
      for (const auto& [idx, c] : b.first.terms) {
        net[static_cast<std::size_t>(idx)] -= c;
      }
      for (std::size_t k = 0; k < naxes; ++k) {
        if (net[k] != 0) ax[k] = true;
      }
    };
    std::vector<Term> terms;
    std::vector<std::vector<CompiledBox>> disjoint_sets(bp.boxes.size());
    std::vector<std::vector<bool>> inv_by_array;  // only for union terms
    for (std::size_t a = 0; a < bp.boxes.size(); ++a) {
      if (auto dd = disjoint_decomposition(bp.boxes[a], bp.domains)) {
        disjoint_sets[a] = std::move(*dd);
        for (const CompiledBox& box : disjoint_sets[a]) {
          Term t;
          t.box = &box;
          std::vector<bool> dims_ax(naxes, false);
          for (const auto& d : box.dims) mark_net(d, dims_ax);
          std::vector<bool> all_ax = dims_ax;
          for (const auto& g : box.guards) {
            std::vector<bool> gax(naxes, false);
            mark_net(g, gax);
            t.guard_axes.emplace_back();
            for (std::size_t k = 0; k < naxes; ++k) {
              if (gax[k]) {
                t.guard_axes.back().push_back(k);
                all_ax[k] = true;
              }
            }
          }
          for (std::size_t k = 0; k < naxes; ++k) {
            if (dims_ax[k]) t.dim_axes.push_back(k);
            if (all_ax[k]) t.axes.push_back(k);
          }
          terms.push_back(std::move(t));
        }
      } else {
        if (inv_by_array.empty()) inv_by_array = invariant_axes_by_array(bp);
        Term t;
        t.array = &bp.boxes[a];
        for (std::size_t k = 0; k < naxes; ++k) {
          if (!inv_by_array[a][k]) t.axes.push_back(k);
        }
        terms.push_back(std::move(t));
      }
    }
    const auto term_value = [&bp](const Term& t,
                                  std::span<const std::int64_t> v) {
      return t.box != nullptr ? box_cardinality(*t.box, v)
                              : bp.counter.count(*t.array, v);
    };

    std::vector<bool> enumerated(naxes, false);
    for (const Term& t : terms) {
      for (const std::size_t k : t.axes) enumerated[k] = true;
    }
    for (std::size_t k = 0; k < naxes; ++k) {
      if (!enumerated[k]) ++pc.axes_dropped;
    }

    // Region refinement: single-axis guard thresholds from the disjoint
    // decompositions split each axis's domain into segments. Inside one
    // region every such guard is provably dead or provably satisfied, so
    // boundary-case boxes stop coupling axes they only touched through a
    // guard, and length-one segments pin their axis out of every term —
    // components shrink to near-singletons per region. The histogram over
    // the full domain is the sum of the region histograms; each coordinate
    // point carries count / total_combos instances, so splitting is used
    // only when that division is exact.
    const std::int64_t total_combos = combos;
    const std::int64_t instance_weight =
        total_combos == kInfDistance ? 0 : pc.count / total_combos;
    const bool can_split =
        instance_weight > 0 && instance_weight * total_combos == pc.count;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> segs(
        naxes);
    for (std::size_t k = 0; k < naxes; ++k) segs[k] = {bp.domains[k]};
    if (can_split) {
      std::vector<std::vector<std::int64_t>> starts(naxes);
      std::vector<std::int64_t> net(naxes, 0);
      for (const Term& t : terms) {
        if (t.box == nullptr) continue;
        for (const auto& g : t.box->guards) {
          std::fill(net.begin(), net.end(), 0);
          for (const auto& [idx, c] : g.second.terms) {
            net[static_cast<std::size_t>(idx)] += c;
          }
          for (const auto& [idx, c] : g.first.terms) {
            net[static_cast<std::size_t>(idx)] -= c;
          }
          std::size_t axis = SIZE_MAX;
          bool single = true;
          for (std::size_t k = 0; k < naxes && single; ++k) {
            if (net[k] == 0) continue;
            single = axis == SIZE_MAX;
            axis = k;
          }
          if (!single || axis == SIZE_MAX) continue;
          // Activity flips where bias + net*x crosses zero: the first
          // active value for net > 0, one past the last for net < 0.
          const std::int64_t bias = g.second.base - g.first.base;
          const std::int64_t boundary =
              net[axis] > 0 ? ceil_div(-bias, net[axis])
                            : floor_div(bias, -net[axis]) + 1;
          if (boundary > bp.domains[axis].first &&
              boundary <= bp.domains[axis].second) {
            starts[axis].push_back(boundary);
          }
        }
      }
      std::int64_t nregions = 1;
      for (std::size_t k = 0; k < naxes; ++k) {
        std::sort(starts[k].begin(), starts[k].end());
        starts[k].erase(std::unique(starts[k].begin(), starts[k].end()),
                        starts[k].end());
        nregions =
            sat_mul(nregions, static_cast<std::int64_t>(starts[k].size() + 1));
      }
      if (nregions <= 4096) {  // else splitting costs more than it saves
        for (std::size_t k = 0; k < naxes; ++k) {
          segs[k].clear();
          std::int64_t lo = bp.domains[k].first;
          for (const std::int64_t s : starts[k]) {
            segs[k].push_back({lo, s - 1});
            lo = s;
          }
          segs[k].push_back({lo, bp.domains[k].second});
        }
      }
    }

    // Guard statuses depend only on the segment of the guard's own axis
    // (net coefficients elsewhere are zero), so they are precomputed per
    // segment instead of re-proving affine bounds in every region.
    enum : std::int8_t { kDead = 0, kHolds = 1, kVaries = 2 };
    std::vector<std::vector<std::vector<std::int8_t>>> guard_status(
        terms.size());
    {
      auto dom = bp.domains;
      for (std::size_t ti = 0; ti < terms.size(); ++ti) {
        const Term& t = terms[ti];
        if (t.box == nullptr) continue;
        guard_status[ti].resize(t.box->guards.size());
        for (std::size_t gi = 0; gi < t.box->guards.size(); ++gi) {
          const auto& g = t.box->guards[gi];
          if (t.guard_axes[gi].size() != 1) continue;  // resolved per region
          const std::size_t k = t.guard_axes[gi].front();
          auto& st = guard_status[ti][gi];
          st.reserve(segs[k].size());
          for (const auto& seg : segs[k]) {
            dom[k] = seg;
            if (affine_gap_bound(g.second, g.first, dom, true) < 0) {
              st.push_back(kDead);
            } else if (affine_gap_bound(g.second, g.first, dom, false) >= 0) {
              st.push_back(kHolds);
            } else {
              st.push_back(kVaries);
            }
          }
          dom[k] = bp.domains[k];
        }
      }
    }

    bool enum_ok = true;
    bool stopped = false;
    std::int64_t work = 0;
    std::uint64_t since_poll = 0;
    std::map<std::int64_t, std::uint64_t> depth_total;
    std::vector<std::size_t> seg_idx(naxes, 0);
    std::vector<std::pair<std::int64_t, std::int64_t>> rdom(naxes);
    struct RTerm {
      const Term* t;
      std::vector<std::size_t> axes;
    };
    struct Component {
      std::vector<std::size_t> axes;
      std::vector<std::size_t> terms;
      std::int64_t combos = 1;
    };
    std::vector<RTerm> rterms;
    std::vector<bool> axis_used(naxes);
    std::vector<bool> ax(naxes);
    std::vector<std::size_t> parent(naxes);
    std::vector<Component> comps;
    std::vector<std::size_t> comp_of(naxes);
    std::vector<std::int64_t> values(naxes);
    for (;;) {  // one iteration per region
      std::int64_t region_total = 1;
      for (std::size_t k = 0; k < naxes; ++k) {
        rdom[k] = segs[k][seg_idx[k]];
        region_total =
            sat_mul(region_total, rdom[k].second - rdom[k].first + 1);
      }
      // Resolve each term against the region: a provably empty guard kills
      // the term, a provably nonempty one stops contributing axes, and
      // axes pinned to a single value drop from every term.
      rterms.clear();
      std::fill(axis_used.begin(), axis_used.end(), false);
      for (std::size_t ti = 0; ti < terms.size(); ++ti) {
        const Term& t = terms[ti];
        std::fill(ax.begin(), ax.end(), false);
        bool term_dead = false;
        if (t.box != nullptr) {
          for (std::size_t gi = 0; gi < t.box->guards.size(); ++gi) {
            std::int8_t st;
            if (!guard_status[ti][gi].empty()) {
              st = guard_status[ti][gi]
                               [seg_idx[t.guard_axes[gi].front()]];
            } else {
              const auto& g = t.box->guards[gi];
              st = affine_gap_bound(g.second, g.first, rdom, true) < 0
                       ? kDead
                   : affine_gap_bound(g.second, g.first, rdom, false) >= 0
                       ? kHolds
                       : kVaries;
            }
            if (st == kDead) {
              term_dead = true;
              break;
            }
            if (st == kHolds) continue;
            for (const std::size_t k : t.guard_axes[gi]) ax[k] = true;
          }
          if (term_dead) continue;
          for (const std::size_t k : t.dim_axes) ax[k] = true;
        } else {
          for (const std::size_t k : t.axes) ax[k] = true;
        }
        RTerm r;
        r.t = &t;
        for (std::size_t k = 0; k < naxes; ++k) {
          if (ax[k] && rdom[k].second > rdom[k].first) {
            r.axes.push_back(k);
            axis_used[k] = true;
          }
        }
        rterms.push_back(std::move(r));
      }

      // Union-find over the region's live axes: one set per group coupled
      // through a shared term.
      for (std::size_t k = 0; k < parent.size(); ++k) parent[k] = k;
      const auto find = [&parent](std::size_t x) {
        while (parent[x] != x) x = parent[x] = parent[parent[x]];
        return x;
      };
      for (const RTerm& r : rterms) {
        for (std::size_t j = 1; j < r.axes.size(); ++j) {
          parent[find(r.axes[j])] = find(r.axes[0]);
        }
      }
      comps.clear();
      std::fill(comp_of.begin(), comp_of.end(), SIZE_MAX);
      std::int64_t region_dep = 1;
      for (std::size_t k = 0; k < naxes; ++k) {
        if (!axis_used[k]) continue;
        region_dep = sat_mul(region_dep, rdom[k].second - rdom[k].first + 1);
        const std::size_t root = find(k);
        if (comp_of[root] == SIZE_MAX) {
          comp_of[root] = comps.size();
          comps.emplace_back();
        }
        Component& c = comps[comp_of[root]];
        c.axes.push_back(k);
        c.combos = sat_mul(c.combos, rdom[k].second - rdom[k].first + 1);
      }
      for (std::size_t ri = 0; ri < rterms.size(); ++ri) {
        if (!rterms[ri].axes.empty()) {
          comps[comp_of[find(rterms[ri].axes[0])]].terms.push_back(ri);
        }
      }
      // Enumeration work is the *sum* of component sizes, accumulated over
      // regions and gated before any region is walked.
      for (const auto& c : comps) work = sat_add(work, c.combos);
      if (work > opts.enum_limit) {
        enum_ok = false;
        break;
      }
      // Each dependent-coordinate assignment of the region represents this
      // many target instances (pinned and term-free axes fold in).
      std::int64_t weight = 0;
      if (can_split) {
        SDLO_CHECK(region_total % region_dep == 0,
                   "region segments must divide the region product");
        weight = instance_weight * (region_total / region_dep);
      } else {
        weight = pc.count / region_dep;
        SDLO_CHECK(weight * region_dep == pc.count,
                   "coordinate domains must divide the partition count");
      }

      for (std::size_t k = 0; k < naxes; ++k) {
        values[k] = rdom[k].first;  // non-enumerated axes stay pinned at lo
      }
      // Terms constant across the region contribute one base value.
      std::int64_t base = 0;
      for (const RTerm& r : rterms) {
        if (r.axes.empty()) base = sat_add(base, term_value(*r.t, values));
      }
      // acc: distribution of the depth sum over the components processed
      // so far, in units of dependent-coordinate combinations.
      std::map<std::int64_t, std::uint64_t> acc{{base, 1}};
      for (const Component& c : comps) {
        std::map<std::int64_t, std::uint64_t> hist;
        for (;;) {
          std::int64_t depth = 0;
          for (const std::size_t ri : c.terms) {
            depth = sat_add(depth, term_value(*rterms[ri].t, values));
          }
          if (!add_count(hist, depth, 1, [&](std::uint64_t n) {
                return fits(depth_total.size() + acc.size() + n);
              })) {
            stopped = true;
            break;
          }
          ++pc.combos_enumerated;
          if (++since_poll >= poll_every) {
            since_poll = 0;
            if (governor_should_stop(gov)) {
              stopped = true;
              break;
            }
          }
          // Advance mixed-radix counter over this component's axes; on
          // completion every axis is back at its segment lower bound.
          std::size_t j = 0;
          for (; j < c.axes.size(); ++j) {
            const std::size_t k = c.axes[j];
            if (values[k] < rdom[k].second) {
              ++values[k];
              break;
            }
            values[k] = rdom[k].first;
          }
          if (j == c.axes.size()) break;
        }
        if (stopped) break;
        std::map<std::int64_t, std::uint64_t> next;
        const std::uint64_t live =
            depth_total.size() + acc.size() + hist.size();
        const auto room = [&](std::uint64_t n) { return fits(live + n); };
        for (const auto& [d1, n1] : acc) {
          for (const auto& [d2, n2] : hist) {
            if (!add_count(next, sat_add(d1, d2), n1 * n2, room)) {
              stopped = true;
              break;
            }
          }
          if (stopped) break;
        }
        if (stopped) break;
        acc = std::move(next);
      }
      if (stopped) break;
      for (const auto& [depth, n] : acc) {
        if (!add_count(depth_total, depth,
                       static_cast<std::uint64_t>(weight) * n,
                       [&](std::uint64_t m) { return fits(acc.size() + m); })) {
          stopped = true;
          break;
        }
      }
      if (stopped) break;

      std::size_t j = 0;
      for (; j < naxes; ++j) {
        if (++seg_idx[j] < segs[j].size()) break;
        seg_idx[j] = 0;
      }
      if (j == naxes) break;  // all regions done
    }
    if (stopped) {
      // Discard the in-flight partition: the completed ones remain a
      // valid (best-so-far) partial curve.
      out.completeness = Completeness::kTruncated;
      break;
    }

    if (enum_ok) {
      pc.depth_counts = std::move(depth_total);
    } else {
      // Too large even after reduction: probe corners + center + random
      // interior points. A constant-depth profile is a translation-
      // invariant window the per-axis check could not certify; anything
      // else is inexact, and a capacity query (predict_at) estimates it
      // from the probe extremes and the continued random stream.
      std::vector<std::vector<std::int64_t>> probes;
      const std::size_t k = bp.domains.size();
      if (k <= 12) {
        for (std::size_t mask = 0; mask < (std::size_t{1} << k); ++mask) {
          std::vector<std::int64_t> v(k);
          for (std::size_t i = 0; i < k; ++i) {
            v[i] = (mask & (std::size_t{1} << i)) ? bp.domains[i].second
                                                  : bp.domains[i].first;
          }
          probes.push_back(std::move(v));
        }
      }
      {
        std::vector<std::int64_t> mid(k);
        for (std::size_t i = 0; i < k; ++i) {
          mid[i] = (bp.domains[i].first + bp.domains[i].second) / 2;
        }
        probes.push_back(std::move(mid));
      }
      SplitMix64 rng(0x5d10c0ffee ^ pi);
      for (int r = 0; r < kProbeSamples; ++r) {
        std::vector<std::int64_t> v(k);
        for (std::size_t i = 0; i < k; ++i) {
          v[i] = rng.range(bp.domains[i].first, bp.domains[i].second);
        }
        probes.push_back(std::move(v));
      }
      std::int64_t depth_min = kInfDistance;
      std::int64_t depth_max = 0;
      for (const auto& pv : probes) {
        const std::int64_t depth = bp.depth_at(pv);
        depth_min = std::min(depth_min, depth);
        depth_max = std::max(depth_max, depth);
      }
      pc.probed = true;
      pc.probe_min = depth_min;
      pc.probe_max = depth_max;
      pc.trial_seed = rng.state();
      if (depth_min == depth_max) {
        pc.depth_counts[depth_min] = static_cast<std::uint64_t>(pc.count);
      } else {
        pc.exact = false;
        out.confidence = Confidence::kApproximate;
      }
    }

    if (pc.exact) {
      // Merging adds at most one aggregate and one per-site entry for each
      // of the partition's depths.
      if (!fits(3 * pc.depth_counts.size())) {
        out.completeness = Completeness::kTruncated;
        break;
      }
      const auto site = static_cast<std::size_t>(pc.site);
      const std::size_t before =
          out.histogram.size() + out.histogram_by_site[site].size();
      merge_curve(out, pc);
      kept += pc.depth_counts.size() + out.histogram.size() +
              out.histogram_by_site[site].size() - before;
    }
    out.parts.push_back(std::move(pc));
  }
  return out;
}

const char* confidence_name(Confidence c) {
  return c == Confidence::kExact ? "exact" : "approximate";
}

}  // namespace sdlo::model
