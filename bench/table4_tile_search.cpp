// Table 4: best tile sizes found by the §6 search with known vs. unknown
// loop bounds, for the tiled two-index transform at a 64KB cache.
//
// The paper's result: searching tile sizes up to 512 with unknown bounds
// returns (64,16,16,128); with known bounds the same tuple is returned for
// every large bound (128..1024), and only cache-resident problems (N <= 64)
// flip to full-sized tiles.
#include <iostream>

#include "bench_common.hpp"
#include "ir/gallery.hpp"
#include "tile/fast_model.hpp"
#include "tile/search.hpp"
#include "trace/walker.hpp"

int main(int argc, char** argv) {
  using namespace sdlo;
  CommandLine cli(argc, argv);
  cli.flag("cache_kb", "cache size in KB (default 64)");
  cli.flag("max_tile", "largest tile value searched (default 512)");
  cli.flag("csv", "emit CSV");
  if (!cli.finish()) return 0;
  const std::int64_t cache_kb = cli.get_int("cache_kb", 64);
  const std::int64_t cap = bench::kb_to_elems(cache_kb);

  auto g = ir::two_index_tiled();
  const auto an = model::analyze(g.prog);
  tile::FastMissModel fast(an);

  tile::SearchOptions opts;
  opts.max_tile = cli.get_int("max_tile", 512);

  std::cout << "== Table 4: best tile (Ti,Tj,Tm,Tn), two-index transform, "
            << cache_kb << "KB cache ==\n\n";

  // Unknown-bounds search first (the large-bound limit).
  tile::SearchOptions uopts = opts;
  uopts.unknown_bounds = true;
  WallTimer ut;
  const auto unknown = tile::search_tiles(g, fast, {}, cap, uopts);
  std::cerr << "  unknown-bounds search: " << unknown.evaluations
            << " evaluations (+" << unknown.cache_hits
            << " memo hits), " << ut.seconds() << "s\n";

  TextTable t({"Loop Bound (N)", "Best tile (known bounds)",
               "Modeled misses", "Best tile (unknown bounds)"});
  for (const std::int64_t n : {1024, 512, 256, 128, 64, 32}) {
    tile::SearchOptions kopts = opts;
    kopts.max_tile = std::min<std::int64_t>(opts.max_tile, n);
    const auto known = tile::search_tiles(g, fast, {n, n, n, n}, cap,
                                          kopts);
    t.add_row({std::to_string(n), bench::tuple_str(known.best.tiles),
               with_commas(static_cast<std::int64_t>(
                   known.best.modeled_misses)),
               n == 256 ? bench::tuple_str(unknown.best.tiles) : ""});
  }
  if (cli.get_bool("csv", false)) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  std::cout << "\nValidation: simulated misses at N=256 for the searched "
               "tile vs the\nequal-tile convention:\n";
  tile::Scorer sim_scorer(g, fast, {256, 256, 256, 256}, cap);
  auto sim_misses = [&](const std::vector<std::int64_t>& tiles) {
    return sim_scorer.simulated_misses(tiles);
  };
  const auto searched = sim_misses(unknown.best.tiles);
  std::cout << "  searched " << bench::tuple_str(unknown.best.tiles)
            << " : " << with_commas(static_cast<std::int64_t>(searched))
            << " misses\n";
  for (std::int64_t eq : {32, 64, 128}) {
    const auto m = sim_misses({eq, eq, eq, eq});
    std::cout << "  equal " << bench::tuple_str({eq, eq, eq, eq}) << " : "
              << with_commas(static_cast<std::int64_t>(m)) << " misses ("
              << format_double(static_cast<double>(m) /
                                   static_cast<double>(searched),
                               2)
              << "x the searched tile)\n";
  }
  return 0;
}
