#include "model/analyzer.hpp"

#include <optional>
#include <set>

#include "model/bound_partition.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"

namespace sdlo::model {

namespace {

using sym::Expr;

bool is_coord_symbol(const std::string& s) {
  return starts_with(s, "__c_") || starts_with(s, "__x_");
}

std::string var_of_coord(const std::string& s) { return s.substr(4); }

}  // namespace

Analysis analyze(const ir::Program& prog) {
  SDLO_CHECK(prog.validated(), "analyze requires a validated Program");
  Analysis an(prog);
  for (auto& part : enumerate_partitions(prog, an.symtab)) {
    PartitionAnalysis pa;
    pa.part = std::move(part);
    if (pa.part.divergence != Divergence::kCold) {
      pa.segments = window_segments(prog, *pa.part.source_spec,
                                    pa.part.target_spec);
      std::set<std::string> coord_syms;
      for (const auto& array : prog.arrays()) {
        auto boxes =
            boxes_for_array(prog, an.symtab, pa.segments, array);
        if (boxes.empty()) continue;
        auto note = [&coord_syms](const Interval& iv) {
          for (const auto& s : sym::symbols_of(iv.lo)) {
            if (is_coord_symbol(s)) coord_syms.insert(s);
          }
          for (const auto& s : sym::symbols_of(iv.hi)) {
            if (is_coord_symbol(s)) coord_syms.insert(s);
          }
        };
        for (const auto& b : boxes) {
          for (const auto& iv : b.dims) note(iv);
          for (const auto& g : b.guards) note(g);
        }
        pa.boxes.emplace(array, std::move(boxes));
      }
      for (const auto& s : coord_syms) {
        pa.coords.emplace_back(s, var_of_coord(s));
      }
    }
    an.parts.push_back(std::move(pa));
  }
  return an;
}

std::int32_t site_index(const ir::Program& prog,
                        const ir::AccessSite& site) {
  std::int32_t idx = 0;
  for (ir::NodeId s : prog.statements_in_order()) {
    if (s == site.stmt) return idx + site.access;
    idx += static_cast<std::int32_t>(prog.statement(s).accesses.size());
  }
  throw ContractViolation("site_index: unknown statement");
}

MissPrediction predict_misses(const Analysis& an, const sym::Env& env,
                              std::int64_t capacity,
                              const SymbolicSweepOptions& opts) {
  return predict_at(an, symbolic_sweep(an, env, opts), env, capacity);
}

MissPrediction predict_at(const Analysis& an, const SymbolicSweep& sweep,
                          const sym::Env& env, std::int64_t capacity) {
  SDLO_EXPECTS(capacity > 0);
  SDLO_EXPECTS(sweep.completeness == Completeness::kComplete);
  const cachesim::SimResult exact = sweep.result_at(capacity);

  MissPrediction out;
  out.capacity = capacity;
  out.total_accesses = sweep.total_accesses;
  out.confidence = sweep.confidence;
  out.misses = static_cast<std::int64_t>(exact.misses);
  out.misses_by_site.assign(exact.misses_by_site.begin(),
                            exact.misses_by_site.end());

  std::optional<sym::Env> full_env;  // bound only if some partition straddles
  for (const PartitionCurve& pc : sweep.parts) {
    PartitionOutcome oc;
    oc.part_index = pc.part_index;
    oc.count = pc.count;
    if (pc.cold) {
      oc.depth_min = oc.depth_max = kInfDistance;
      oc.misses = pc.count;
    } else if (pc.exact) {
      oc.depth_min = pc.depth_counts.begin()->first;
      oc.depth_max = pc.depth_counts.rbegin()->first;
      oc.misses = static_cast<std::int64_t>(
          cachesim::misses_from_histogram(pc.depth_counts, 0, capacity));
      oc.enumerated = !pc.probed;
    } else {
      // Not in the sweep's histogram: estimate it from the probes.
      oc.approximated = true;
      oc.depth_min = pc.probe_min;
      oc.depth_max = pc.probe_max;
      if (pc.probe_min > capacity) {
        oc.misses = pc.count;
      } else if (pc.probe_max > capacity) {
        // Straddling: statistical estimate (generalizes the paper's
        // min/max interpolation), continuing the probes' random stream.
        if (!full_env) full_env = an.symtab.bind_extents(env);
        BoundPartition bp =
            bind_partition(an.parts[pc.part_index], *full_env);
        SplitMix64 rng(pc.trial_seed);
        const int trials = 65536;
        int miss_trials = 0;
        std::vector<std::int64_t> v(bp.domains.size());
        for (int t = 0; t < trials; ++t) {
          for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = rng.range(bp.domains[i].first, bp.domains[i].second);
          }
          if (bp.depth_at(v) > capacity) ++miss_trials;
        }
        oc.misses = static_cast<std::int64_t>(
            static_cast<double>(pc.count) *
            (static_cast<double>(miss_trials) / trials));
      }
      out.misses += oc.misses;
      out.misses_by_site[static_cast<std::size_t>(pc.site)] += oc.misses;
    }
    out.outcomes.push_back(oc);
  }
  return out;
}

std::vector<SymbolicRow> symbolic_report(const Analysis& an) {
  std::vector<SymbolicRow> rows;
  // Presentation renaming: coordinates become their loop-variable names,
  // pivots become "x".
  for (std::size_t pi = 0; pi < an.parts.size(); ++pi) {
    const PartitionAnalysis& pa = an.parts[pi];
    SymbolicRow row;
    row.part_index = pi;
    row.description = describe(pa.part);
    row.count = an.symtab.resolve(pa.part.count);
    if (pa.part.divergence == Divergence::kCold) {
      row.infinite = true;
      row.total = Expr::constant(0);
      rows.push_back(std::move(row));
      continue;
    }
    std::map<std::string, Expr> rename;
    for (const auto& [symbol, var] : pa.coords) {
      rename.emplace(symbol, starts_with(symbol, "__x_")
                                 ? Expr::symbol("x")
                                 : Expr::symbol(var));
    }
    Expr total = Expr::constant(0);
    bool all_exact = true;
    for (const auto& [array, boxes] : pa.boxes) {
      bool exact = true;
      Expr cost = symbolic_union(boxes, an.symtab, &exact);
      all_exact = all_exact && exact;
      cost = an.symtab.resolve(sym::substitute_exprs(cost, rename));
      total = total + cost;
      row.per_array.emplace(array, std::move(cost));
    }
    row.total = std::move(total);
    row.exact = all_exact;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace sdlo::model
