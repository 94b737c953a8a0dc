// Ablation A5: the two §7 limit cost models (bus-limited sum-of-misses vs
// infinite-bandwidth max-of-misses) across processor counts and tile
// configurations. Shows the paper's point: for balanced block partitions
// both limits rank tile configurations identically, so the sequential
// per-slice optimizer serves either regime.
#include <iostream>

#include "bench_common.hpp"
#include "ir/gallery.hpp"
#include "parallel/smp_model.hpp"

int main(int argc, char** argv) {
  using namespace sdlo;
  CommandLine cli(argc, argv);
  cli.flag("range", "loop range N (default 512)");
  cli.flag("csv", "emit CSV");
  if (!cli.finish()) return 0;
  const std::int64_t n = cli.get_int("range", 512);
  const std::int64_t cap = bench::kb_to_elems(64);

  auto g = ir::two_index_tiled();
  const auto an = model::analyze(g.prog);
  parallel::CostCalibration cal;  // default coefficients; shapes only
  model::SymbolicSweepOptions popts;
  popts.enum_limit = 1 << 16;

  const std::vector<std::vector<std::int64_t>> tile_sets{
      {32, 32, 32, 32}, {64, 64, 64, 64}, {64, 16, 16, 128},
      {128, 128, 128, 128}};

  std::cout << "== Ablation A5: bus-limited vs infinite-bandwidth cost "
               "models (N=" << n << ") ==\n\n";
  TextTable t({"Tiles", "P", "Per-proc misses", "Bus-limited (s)",
               "Infinite-bw (s)", "Ratio"});
  for (const auto& tiles : tile_sets) {
    for (int p : {1, 2, 4, 8}) {
      const auto est = parallel::estimate_smp(an, g, "NN", {n, n, n, n},
                                              tiles, p, cap, cal, popts);
      t.add_row({bench::tuple_str(tiles), std::to_string(p),
                 with_commas(est.per_proc_misses),
                 format_double(est.seconds_bus, 3),
                 format_double(est.seconds_infinite, 3),
                 format_double(est.seconds_bus /
                                   std::max(1e-12, est.seconds_infinite),
                               2)});
    }
  }
  if (cli.get_bool("csv", false)) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  // Rank agreement check across the two limits, per processor count.
  std::cout << "\nRank agreement (best tile per limit model):\n";
  for (int p : {2, 4, 8}) {
    double best_bus = 1e300;
    double best_inf = 1e300;
    std::size_t arg_bus = 0;
    std::size_t arg_inf = 0;
    for (std::size_t i = 0; i < tile_sets.size(); ++i) {
      const auto est = parallel::estimate_smp(an, g, "NN", {n, n, n, n},
                                              tile_sets[i], p, cap, cal,
                                              popts);
      if (est.seconds_bus < best_bus) {
        best_bus = est.seconds_bus;
        arg_bus = i;
      }
      if (est.seconds_infinite < best_inf) {
        best_inf = est.seconds_infinite;
        arg_inf = i;
      }
    }
    std::cout << "  P=" << p << ": bus-limited prefers "
              << bench::tuple_str(tile_sets[arg_bus]) << ", infinite-bw "
              << bench::tuple_str(tile_sets[arg_inf])
              << (arg_bus == arg_inf ? "  (agree)" : "  (DISAGREE)")
              << "\n";
  }
  return 0;
}
