#include "parallel/smp_model.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/parallel_safety.hpp"
#include "support/check.hpp"

namespace sdlo::parallel {

CostCalibration CostCalibration::from_runs(double flops1, double misses1,
                                           double seconds1, double flops2,
                                           double misses2, double seconds2) {
  const double det = flops1 * misses2 - flops2 * misses1;
  SDLO_CHECK(std::abs(det) > 1e-12 * std::abs(flops1 * misses2),
             "calibration runs are linearly dependent");
  CostCalibration c;
  c.sec_per_flop = (seconds1 * misses2 - seconds2 * misses1) / det;
  c.sec_per_miss = (flops1 * seconds2 - flops2 * seconds1) / det;
  SDLO_CHECK(c.sec_per_flop > 0 && c.sec_per_miss > 0,
             "calibration produced non-positive coefficients");
  return c;
}

double count_flops(const ir::Program& prog, const sym::Env& env) {
  double flops = 0;
  for (ir::NodeId s : prog.statements_in_order()) {
    int reads = 0;
    for (const auto& a : prog.statement(s).accesses) {
      if (a.mode == ir::AccessMode::kRead) ++reads;
    }
    if (reads < 2) continue;  // initialization statements do no FP work
    flops += 2.0 * static_cast<double>(sym::evaluate(prog.instances_of(s),
                                                     env));
  }
  return flops;
}

SmpEstimate estimate_smp(const model::Analysis& an,
                         const ir::GalleryProgram& g,
                         const std::string& partitioned_bound,
                         const std::vector<std::int64_t>& bounds,
                         const std::vector<std::int64_t>& tiles,
                         int processors, std::int64_t capacity,
                         const CostCalibration& cal,
                         const model::SymbolicSweepOptions& popts) {
  SDLO_EXPECTS(processors >= 1);
  const auto pos_it = std::find(g.bounds.begin(), g.bounds.end(),
                                partitioned_bound);
  SDLO_CHECK(pos_it != g.bounds.end(),
             "unknown partitioned bound: " + partitioned_bound);
  const auto pos = static_cast<std::size_t>(pos_it - g.bounds.begin());

  // §7 assumes block-partitioning the bound is synchronization-free; refuse
  // estimates whose partitioned loop carries a dependence.
  analysis::require_partition_safety(g.prog, partitioned_bound);

  SmpEstimate est;
  est.processors = processors;

  // The per-processor slice: the partitioned bound shrinks by P.
  std::vector<std::int64_t> slice_bounds = bounds;
  SDLO_CHECK(slice_bounds[pos] % processors == 0,
             "partitioned bound must divide by the processor count");
  slice_bounds[pos] /= processors;

  // Clamp tiles to their (possibly shrunken) bound, preserving
  // divisibility: use the largest divisor of the bound <= the tile.
  est.tiles = tiles;
  for (std::size_t t = 0; t < g.tiles.size(); ++t) {
    const auto& bound_sym = g.tile_of.at(g.tiles[t]);
    const auto bpos = static_cast<std::size_t>(
        std::find(g.bounds.begin(), g.bounds.end(), bound_sym) -
        g.bounds.begin());
    const std::int64_t bound = slice_bounds[bpos];
    std::int64_t tv = std::min(est.tiles[t], bound);
    while (bound % tv != 0) --tv;
    est.tiles[t] = tv;
  }

  const sym::Env slice_env = g.make_env(slice_bounds, est.tiles);
  const auto pred = model::predict_misses(an, slice_env, capacity, popts);
  est.per_proc_misses = pred.misses;
  est.total_misses =
      pred.misses * static_cast<std::int64_t>(processors);

  const sym::Env full_env = g.make_env(bounds, tiles);
  est.total_flops = count_flops(g.prog, full_env);

  const double compute = est.total_flops * cal.sec_per_flop /
                         static_cast<double>(processors);
  const double per_proc_mem =
      static_cast<double>(est.per_proc_misses) * cal.sec_per_miss;
  // Infinite bandwidth: compute and one slice's memory cost overlap across
  // processors; the slowest processor dominates (balanced => any slice).
  est.seconds_infinite = compute + per_proc_mem;
  // Bus-limited: all memory traffic serializes on the shared bus.
  est.seconds_bus =
      compute + static_cast<double>(est.total_misses) * cal.sec_per_miss;
  return est;
}

}  // namespace sdlo::parallel
