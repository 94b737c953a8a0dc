// Table 2: cache-miss prediction vs. simulation for the tiled two-index
// transform — the paper's six configurations, with the analytical model
// supplying "#Predicted misses" and the fully-associative LRU trace
// simulator supplying "#Actual misses".
//
// Paper reference values (SimpleScalar sim-cache, byte-addressed):
//   (256^4) (128,64,64,128) 256KB : 1,048,576   / 1,066,774
//   (256^4) (64,128,128,64) 256KB : 1,114,112   / 1,119,659
//   (512^4) (128,128,128,128) 256KB : 6,815,744 / 6,822,800
//   (256^4) (64,64,64,128)  64KB : 34,471,936   / 34,472,689
//   (256^4) (128,64,64,128) 64KB : 34,471,936   / 34,472,209
//   (512,256,256,512) (128,64,64,128) 64KB : 137,232,384 / 137,761,584
//
// Our element-granularity simulator is the ground truth here; the headline
// claim being reproduced is that the model's prediction error is a small
// fraction of a percent.
#include <iostream>

#include "bench_common.hpp"
#include "cachesim/parallel_stack.hpp"
#include "ir/gallery.hpp"
#include "trace/walker.hpp"

int main(int argc, char** argv) {
  using namespace sdlo;
  CommandLine cli(argc, argv);
  cli.flag("quick", "quarter-scale bounds (fast CI runs)");
  cli.flag("csv", "emit CSV");
  if (!cli.finish()) return 0;
  const bool quick = cli.get_bool("quick", false);
  const std::int64_t scale = quick ? 4 : 1;

  struct Config {
    std::vector<std::int64_t> bounds;  // (I, J, M, N)
    std::vector<std::int64_t> tiles;   // (Ti, Tj, Tm, Tn)
    std::int64_t cache_kb;
  };
  const std::vector<Config> configs{
      {{256, 256, 256, 256}, {128, 64, 64, 128}, 256},
      {{256, 256, 256, 256}, {64, 128, 128, 64}, 256},
      {{512, 512, 512, 512}, {128, 128, 128, 128}, 256},
      {{256, 256, 256, 256}, {64, 64, 64, 128}, 64},
      {{256, 256, 256, 256}, {128, 64, 64, 128}, 64},
      {{512, 256, 256, 512}, {128, 64, 64, 128}, 64},
  };

  auto g = ir::two_index_tiled();
  const auto an = model::analyze(g.prog);

  std::cout << "== Table 2: predicted vs actual misses, tiled two-index "
               "transform ==\n"
            << (quick ? "(quick mode: bounds/tiles/cache scaled by 1/4)\n"
                      : "")
            << "\n";

  TextTable t({"Loop Bounds (I,J,M,N)", "Tile Sizes", "Cache",
               "#Predicted", "#Actual", "Error"});
  for (const auto& cfg : configs) {
    std::vector<std::int64_t> bounds = cfg.bounds;
    std::vector<std::int64_t> tiles = cfg.tiles;
    for (auto& b : bounds) b /= scale;
    for (auto& tv : tiles) tv /= scale;
    const std::int64_t cap = bench::kb_to_elems(cfg.cache_kb) /
                             (scale * scale);

    const auto env = g.make_env(bounds, tiles);
    WallTimer model_timer;
    const auto pred = model::predict_misses(an, env, cap);
    const double model_s = model_timer.seconds();

    WallTimer sim_timer;
    trace::CompiledProgram cp(g.prog, env);
    const auto sim = cachesim::simulate_sweep_streamed(cp, {{cap, 1}})[0];
    const double sim_s = sim_timer.seconds();

    t.add_row({bench::tuple_str(bounds), bench::tuple_str(tiles),
               std::to_string(cfg.cache_kb / (scale * scale)) + "KB",
               with_commas(pred.misses),
               with_commas(static_cast<std::int64_t>(sim.misses)),
               bench::rel_err_pct(pred.misses, sim.misses)});
    std::cerr << "  [" << bench::tuple_str(bounds) << " "
              << bench::tuple_str(tiles) << "] model " << model_s
              << "s, simulation " << sim_s << "s ("
              << with_commas(static_cast<std::int64_t>(sim.accesses))
              << " accesses)\n";
  }
  if (cli.get_bool("csv", false)) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  std::cout << "\nPaper reports errors between 0.002% and 0.4% on these\n"
               "configurations; the reproduction's model is exact at\n"
               "element granularity (0% on every row is expected).\n";
  return 0;
}
