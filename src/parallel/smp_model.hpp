// Shared-memory (SMP) performance model (§7).
//
// TCE-generated imperfect nests have synchronization-free outer parallel
// loops; block-partitioning one of them across P processors gives each
// processor the sequential problem on a 1/P slice (Fig. 9). The cost of
// shared-memory access lies between two limit models the paper states:
//
//   bus-limited:  processors serialize on memory — the memory cost is
//                 proportional to the SUM of per-processor misses;
//   infinite-bw:  processors overlap perfectly — the memory cost is the
//                 MAX of per-processor miss costs.
//
// estimate_smp() evaluates both limits from the *exact* per-slice miss
// prediction of the sequential model, plus a calibrated compute term. On
// this build machine (a single hardware core) the wall-clock speedup curves
// of Figs. 10/11 cannot be measured physically, so the benches regenerate
// them from this model after calibrating seconds-per-flop on a real
// single-thread kernel run (see DESIGN.md's substitution table).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/gallery.hpp"
#include "model/analyzer.hpp"

namespace sdlo::parallel {

/// Machine cost coefficients.
struct CostCalibration {
  double sec_per_flop = 1.0e-9;   ///< amortized cost of one FP operation
  double sec_per_miss = 60.0e-9;  ///< memory stall charged per cache miss

  /// Solves the two coefficients from two measured runs with known flop
  /// and miss counts (a 2x2 linear system); throws on a singular system.
  static CostCalibration from_runs(double flops1, double misses1,
                                   double seconds1, double flops2,
                                   double misses2, double seconds2);
};

/// Modeled execution of one (P, tiles) configuration.
struct SmpEstimate {
  int processors = 1;
  std::vector<std::int64_t> tiles;       ///< tile sizes actually used
  std::int64_t per_proc_misses = 0;      ///< misses of one balanced slice
  std::int64_t total_misses = 0;         ///< P * per_proc_misses
  double total_flops = 0;                ///< whole-problem useful flops
  double seconds_bus = 0;                ///< bus-limited limit model
  double seconds_infinite = 0;           ///< infinite-bandwidth limit model
};

/// Useful floating-point operations of the whole program under `env`:
/// two per instance of each multiply-accumulate statement (>= 2 reads).
double count_flops(const ir::Program& prog, const sym::Env& env);

/// Models a run of gallery program `g` on `processors` CPUs, partitioning
/// the loop bound named `partitioned_bound` in blocks. Tile sizes are
/// clamped to the slice extent when a slice is smaller than the tile
/// (matching what a runtime tiler does). The slice bound must divide evenly
/// by P. `capacity` is the per-processor cache size in elements.
SmpEstimate estimate_smp(const model::Analysis& an,
                         const ir::GalleryProgram& g,
                         const std::string& partitioned_bound,
                         const std::vector<std::int64_t>& bounds,
                         const std::vector<std::int64_t>& tiles,
                         int processors, std::int64_t capacity,
                         const CostCalibration& cal,
                         const model::SymbolicSweepOptions& popts = {});

}  // namespace sdlo::parallel
