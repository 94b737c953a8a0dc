// SMP scaling: model the parallel two-index transform with the §7 cost
// models, choosing tile sizes with the sequential optimizer applied to each
// processor's slice (Fig. 9's reduction).
//
//   $ ./smp_scaling [--range 512]
#include <iostream>

#include "ir/gallery.hpp"
#include "model/analyzer.hpp"
#include "parallel/smp_model.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"
#include "tile/fast_model.hpp"
#include "tile/search.hpp"

int main(int argc, char** argv) {
  using namespace sdlo;
  CommandLine cli(argc, argv);
  cli.flag("range", "loop range (default 512)");
  cli.flag("cache_kb", "per-CPU cache in KB (default 64)");
  if (!cli.finish()) return 0;
  const std::int64_t n = cli.get_int("range", 512);
  const std::int64_t cap = cli.get_int("cache_kb", 64) * 1024 / 8;

  auto g = ir::two_index_tiled();
  const auto an = model::analyze(g.prog);
  parallel::CostCalibration cal;  // default machine coefficients
  model::SymbolicSweepOptions popts;
  popts.enum_limit = 1 << 16;

  // Tile for the per-processor slice (the paper's reduction: each CPU
  // solves the sequential problem on its slice).
  tile::FastMissModel fast(an);
  tile::SearchOptions sopts;
  sopts.max_tile = n;

  std::cout << "Two-index transform, N=" << n << ", per-CPU cache " << cap
            << " elements\n\n";
  std::cout << "P   slice-tuned tile     per-CPU misses   bus-limited(s)  "
               "infinite-bw(s)\n";
  for (int p : {1, 2, 4, 8}) {
    // Tune tiles for the slice the processor actually executes.
    const std::vector<std::int64_t> slice{n, n, n, n / p};
    const auto tuned = tile::search_tiles(g, fast, slice, cap, sopts);
    const auto est = parallel::estimate_smp(an, g, "NN", {n, n, n, n},
                                            tuned.best.tiles, p, cap, cal,
                                            popts);
    std::cout << p << "   (" << est.tiles[0] << "," << est.tiles[1] << ","
              << est.tiles[2] << "," << est.tiles[3] << ")"
              << "\t\t" << with_commas(est.per_proc_misses) << "\t "
              << format_double(est.seconds_bus, 3) << "\t         "
              << format_double(est.seconds_infinite, 3) << "\n";
  }
  std::cout << "\nBoth §7 limit models shrink with P; the bus-limited\n"
               "model saturates when total traffic dominates.\n";
  return 0;
}
