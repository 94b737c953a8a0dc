// Ablation A6 (§7.1's aside): the model assumes full associativity and the
// paper relies on tile copying to suppress conflict misses in real caches.
// This bench quantifies that: misses of the tiled matmul trace under a
// fully-associative cache vs set-associative geometries of equal capacity.
#include <iostream>

#include "bench_common.hpp"
#include "cachesim/parallel_stack.hpp"
#include "cachesim/sim.hpp"
#include "ir/gallery.hpp"
#include "trace/walker.hpp"

int main(int argc, char** argv) {
  using namespace sdlo;
  CommandLine cli(argc, argv);
  cli.flag("n", "loop bound (default 128)");
  cli.flag("csv", "emit CSV");
  if (!cli.finish()) return 0;
  const std::int64_t n = cli.get_int("n", 128);
  const std::int64_t cap = bench::kb_to_elems(16);

  auto g = ir::matmul_tiled();
  std::cout << "== Ablation A6: associativity sensitivity (tiled matmul, "
               "N=" << n << ", 16KB) ==\n\n";
  TextTable t({"Tiles", "Fully assoc", "16-way", "4-way", "Direct-mapped",
               "DM/FA ratio"});
  for (const auto& tiles : std::vector<std::vector<std::int64_t>>{
           {16, 16, 16}, {32, 32, 32}, {64, 64, 64}}) {
    const auto env = g.make_env({n, n, n}, tiles);
    trace::CompiledProgram cp(g.prog, env);
    // The sweep engine answers the fully-associative cache; each
    // set-associative geometry is simulated on its own.
    const auto fa = cachesim::simulate_sweep_streamed(cp, {{cap, 1}})[0].misses;
    const auto w16 = cachesim::simulate_set_assoc(cp, cap, 16, 1).misses;
    const auto w4 = cachesim::simulate_set_assoc(cp, cap, 4, 1).misses;
    const auto dm = cachesim::simulate_set_assoc(cp, cap, 1, 1).misses;
    t.add_row({bench::tuple_str(tiles),
               with_commas(static_cast<std::int64_t>(fa)),
               with_commas(static_cast<std::int64_t>(w16)),
               with_commas(static_cast<std::int64_t>(w4)),
               with_commas(static_cast<std::int64_t>(dm)),
               format_double(static_cast<double>(dm) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     fa, 1)),
                             2)});
  }
  if (cli.get_bool("csv", false)) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  std::cout << "\nThe fully-associative column is what the stack-distance\n"
               "model predicts exactly; the gap to low associativity is\n"
               "the conflict-miss term the paper eliminates by copying\n"
               "tiles into contiguous buffers (§7.1).\n";
  return 0;
}
