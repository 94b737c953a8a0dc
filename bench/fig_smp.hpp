// Shared driver for Figs. 10 and 11: two-index transform execution time
// versus processor count, for equal tile sizes {32,64,128,256} and the
// model-predicted tile, at a given loop range.
//
// Substitution note (see DESIGN.md): by default the speedup curves are
// printed from the paper's own §7 cost models, not from wall-clock times.
// Machine coefficients (seconds/flop, seconds/miss) are calibrated from two
// real single-thread kernel runs with model-known miss counts; the
// per-processor miss counts entering the cost models come from the exact
// sequential stack-distance model applied to each processor's slice. Pass
// --measure to also time real threaded runs on the host's cores.
#pragma once

#include <iostream>

#include "bench_common.hpp"
#include "ir/gallery.hpp"
#include "kernels/two_index.hpp"
#include "parallel/smp_model.hpp"
#include "tile/fast_model.hpp"
#include "tile/search.hpp"

namespace sdlo::bench {

inline int run_smp_figure(const char* title, std::int64_t default_range,
                          int argc, char** argv) {
  CommandLine cli(argc, argv);
  cli.flag("range", "loop range N (default matches the paper's figure)");
  cli.flag("cache_kb", "per-processor cache in KB (default 64)");
  cli.flag("calibrate_n", "problem size for the calibration runs");
  cli.flag("measure", "also time real threaded kernel runs");
  cli.flag("csv", "emit CSV");
  if (!cli.finish()) return 0;
  const std::int64_t n = cli.get_int("range", default_range);
  const std::int64_t cap = kb_to_elems(cli.get_int("cache_kb", 64));

  auto g = ir::two_index_tiled();
  const auto an = model::analyze(g.prog);

  // --- Calibrate machine coefficients from two real runs. ---------------
  const std::int64_t cn = cli.get_int("calibrate_n", 256);
  model::SymbolicSweepOptions popts;
  popts.enum_limit = 1 << 16;  // probe-first: plenty for figure shapes

  auto run_once = [&](const kernels::TwoIndexTiles& tl,
                      const std::vector<std::int64_t>& tiles) {
    kernels::Matrix a(cn, cn), c1(cn, cn), c2(cn, cn), b(cn, cn);
    a.fill_pattern(1);
    c1.fill_pattern(2);
    c2.fill_pattern(3);
    WallTimer t;
    kernels::two_index_tiled(a, c1, c2, b, tl, nullptr,
                             /*copy_tiles=*/true);
    const double secs = t.seconds();
    const auto env = g.make_env({cn, cn, cn, cn}, tiles);
    const auto pred = model::predict_misses(an, env, cap, popts);
    return std::pair<double, double>(secs,
                                     static_cast<double>(pred.misses));
  };
  const double flops = kernels::two_index_flops(cn, cn, cn, cn);
  const auto [s1, m1] =
      run_once(kernels::TwoIndexTiles{8, 8, 8, 8}, {8, 8, 8, 8});
  const auto [s2, m2] = run_once(
      kernels::TwoIndexTiles{cn, cn, cn, cn}, {cn, cn, cn, cn});
  parallel::CostCalibration cal;
  try {
    cal = parallel::CostCalibration::from_runs(flops, m1, s1, flops, m2,
                                               s2);
  } catch (const Error&) {
    // Degenerate measurement (e.g. identical miss counts): keep defaults.
    std::cerr << "  calibration fell back to default coefficients\n";
  }
  std::cerr << "  calibration: " << cal.sec_per_flop * 1e9 << " ns/flop, "
            << cal.sec_per_miss * 1e9 << " ns/miss\n";

  // --- Tile configurations: equal tiles + the searched optimum. ---------
  tile::FastMissModel fast(an);
  tile::SearchOptions sopts;
  sopts.max_tile = std::min<std::int64_t>(512, n);
  const auto best =
      tile::search_tiles(g, fast, {n, n, n, n}, cap, sopts).best.tiles;

  std::vector<std::pair<std::string, std::vector<std::int64_t>>> configs;
  for (std::int64_t eq : {32, 64, 128, 256}) {
    if (eq <= n) {
      configs.emplace_back("Tile Size = " + std::to_string(eq),
                           std::vector<std::int64_t>{eq, eq, eq, eq});
    }
  }
  configs.emplace_back("Predicted " + tuple_str(best), best);

  std::cout << "== " << title << ": two-index transform, loop range = " << n
            << " ==\n(modeled time in seconds; bus-limited / "
               "infinite-bandwidth limit models of §7)\n\n";

  TextTable t({"Configuration", "P=1", "P=2", "P=4", "P=8"});
  TextTable tm({"Configuration", "P=1", "P=2", "P=4", "P=8"});
  for (const auto& [name, tiles] : configs) {
    std::vector<std::string> row{name};
    std::vector<std::string> mrow{name};
    for (int p : {1, 2, 4, 8}) {
      const auto est = parallel::estimate_smp(an, g, "NN", {n, n, n, n},
                                              tiles, p, cap, cal, popts);
      row.push_back(format_double(est.seconds_bus, 2) + " / " +
                    format_double(est.seconds_infinite, 2));
      mrow.push_back(with_commas(est.per_proc_misses));
    }
    t.add_row(std::move(row));
    tm.add_row(std::move(mrow));
  }
  if (cli.get_bool("csv", false)) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
    std::cout << "\nPer-processor misses entering the cost models:\n";
    tm.print(std::cout);
  }

  if (cli.get_bool("measure", false)) {
    std::cout << "\nReal threaded wall-clock (meaningful on multicore "
                 "hosts only):\n";
    kernels::Matrix a(n, n), c1(n, n), c2(n, n);
    a.fill_pattern(1);
    c1.fill_pattern(2);
    c2.fill_pattern(3);
    for (const auto& [name, tiles] : configs) {
      std::cout << "  " << name << ":";
      for (int p : {1, 2, 4, 8}) {
        kernels::Matrix b(n, n);
        parallel::ThreadPool pool(p);
        kernels::TwoIndexTiles tl{tiles[0], tiles[1], tiles[2], tiles[3]};
        WallTimer timer;
        kernels::two_index_tiled(a, c1, c2, b, tl, &pool, true);
        std::cout << "  P=" << p << ": "
                  << format_double(timer.seconds(), 2) << "s";
      }
      std::cout << "\n";
    }
  }

  std::cout << "\nExpected shape (paper Figs. 10/11): the predicted tile's\n"
               "curve lies at or below every equal-tile curve, and time\n"
               "shrinks with P under both limit models.\n";
  return 0;
}

}  // namespace sdlo::bench
