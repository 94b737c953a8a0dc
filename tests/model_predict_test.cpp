// The central validation of the reproduction: the compile-time stack
// distance model must agree with the trace-driven fully-associative LRU
// simulator — the experiment behind Tables 2 and 3 — on every kernel, at
// every capacity, per access site.
#include "support/check.hpp"
#include "support/checked_math.hpp"
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "cachesim/sim.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "model/analyzer.hpp"
#include "model/symbolic_sweep.hpp"
#include "trace/walker.hpp"

namespace sdlo::model {
namespace {

enum class Prog {
  kMatmul,
  kMatmulTiled,
  kTwoIndexFused,
  kTwoIndexUnfused,
  kTwoIndexTiled,
};

struct Case {
  Prog prog;
  std::vector<std::int64_t> bounds;
  std::vector<std::int64_t> tiles;
  std::int64_t capacity;
};

ir::GalleryProgram make(Prog p) {
  switch (p) {
    case Prog::kMatmul:
      return ir::matmul();
    case Prog::kMatmulTiled:
      return ir::matmul_tiled();
    case Prog::kTwoIndexFused:
      return ir::two_index_fused();
    case Prog::kTwoIndexUnfused:
      return ir::two_index_unfused();
    case Prog::kTwoIndexTiled:
      return ir::two_index_tiled();
  }
  throw Error("bad enum");
}

const char* prog_name(Prog p) {
  switch (p) {
    case Prog::kMatmul:
      return "Matmul";
    case Prog::kMatmulTiled:
      return "MatmulTiled";
    case Prog::kTwoIndexFused:
      return "TwoIndexFused";
    case Prog::kTwoIndexUnfused:
      return "TwoIndexUnfused";
    case Prog::kTwoIndexTiled:
      return "TwoIndexTiled";
  }
  throw Error("bad enum");
}

std::string join_extents(const std::vector<std::int64_t>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += 'x';
    out += std::to_string(xs[i]);
  }
  return out;
}

// Prints a case by its values, e.g. "MatmulTiled_N8x8x8_T4x4x4_C20".
// gtest_discover_tests names each ctest case by this text, so the names
// are the same on every build (gtest's fallback prints the struct's
// bytes, heap pointers included).
void PrintTo(const Case& c, std::ostream* os) {
  *os << prog_name(c.prog) << "_N" << join_extents(c.bounds);
  if (!c.tiles.empty()) *os << "_T" << join_extents(c.tiles);
  *os << "_C" << c.capacity;
}

class ModelVsSimulator : public ::testing::TestWithParam<Case> {};

TEST_P(ModelVsSimulator, ExactAgreementPerSite) {
  const Case& c = GetParam();
  auto g = make(c.prog);
  const auto env = g.make_env(c.bounds, c.tiles);
  trace::CompiledProgram cp(g.prog, env);
  const auto sim = cachesim::simulate_lru(cp, c.capacity);
  const auto an = analyze(g.prog);
  const auto pred = predict_misses(an, env, c.capacity);

  EXPECT_EQ(pred.total_accesses,
            static_cast<std::int64_t>(sim.accesses));
  EXPECT_EQ(static_cast<std::uint64_t>(pred.misses), sim.misses);
  ASSERT_EQ(pred.misses_by_site.size(), sim.misses_by_site.size());
  for (std::size_t s = 0; s < sim.misses_by_site.size(); ++s) {
    EXPECT_EQ(static_cast<std::uint64_t>(pred.misses_by_site[s]),
              sim.misses_by_site[s])
        << "site " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ModelVsSimulator,
    ::testing::Values(
        // Untiled matmul across capacities (rectangular bounds included).
        Case{Prog::kMatmul, {8, 8, 8}, {}, 4},
        Case{Prog::kMatmul, {8, 8, 8}, {}, 16},
        Case{Prog::kMatmul, {8, 8, 8}, {}, 64},
        Case{Prog::kMatmul, {8, 8, 8}, {}, 1000},
        Case{Prog::kMatmul, {12, 10, 9}, {}, 30},
        Case{Prog::kMatmul, {5, 17, 3}, {}, 23},
        Case{Prog::kMatmul, {1, 1, 1}, {}, 2},
        Case{Prog::kMatmul, {16, 1, 4}, {}, 8},
        // Tiled matmul: square and skewed tiles, degenerate tiles.
        Case{Prog::kMatmulTiled, {8, 8, 8}, {4, 4, 4}, 20},
        Case{Prog::kMatmulTiled, {8, 8, 8}, {2, 8, 4}, 33},
        Case{Prog::kMatmulTiled, {16, 16, 16}, {4, 8, 2}, 48},
        Case{Prog::kMatmulTiled, {16, 16, 16}, {16, 16, 16}, 100},
        Case{Prog::kMatmulTiled, {16, 16, 16}, {1, 1, 1}, 7},
        Case{Prog::kMatmulTiled, {12, 12, 12}, {3, 4, 6}, 55},
        // Fused / unfused two-index transforms.
        Case{Prog::kTwoIndexFused, {6, 7, 8, 9}, {}, 25},
        Case{Prog::kTwoIndexFused, {6, 7, 8, 9}, {}, 7},
        Case{Prog::kTwoIndexFused, {4, 4, 4, 4}, {}, 3},
        Case{Prog::kTwoIndexUnfused, {6, 7, 8, 9}, {}, 25},
        Case{Prog::kTwoIndexUnfused, {6, 7, 8, 9}, {}, 60},
        Case{Prog::kTwoIndexUnfused, {5, 5, 5, 5}, {}, 12},
        // Tiled two-index transform (imperfect nest, tile-buffer reuse).
        Case{Prog::kTwoIndexTiled, {8, 8, 8, 8}, {4, 2, 4, 2}, 30},
        Case{Prog::kTwoIndexTiled, {8, 8, 8, 8}, {4, 2, 4, 2}, 8},
        Case{Prog::kTwoIndexTiled, {8, 8, 8, 8}, {4, 2, 4, 2}, 120},
        Case{Prog::kTwoIndexTiled, {16, 8, 8, 16}, {4, 2, 4, 8}, 60},
        Case{Prog::kTwoIndexTiled, {16, 16, 16, 16}, {8, 8, 8, 8}, 200},
        Case{Prog::kTwoIndexTiled, {8, 8, 8, 8}, {8, 8, 8, 8}, 64},
        Case{Prog::kTwoIndexTiled, {8, 8, 8, 8}, {1, 1, 1, 1}, 5},
        Case{Prog::kTwoIndexTiled, {12, 6, 9, 15}, {4, 3, 3, 5}, 47}));

TEST(ModelVsSimulatorText, ParsedProgramsAgree) {
  // Programs written in the textual front end, including a 3-deep
  // imperfect nest that none of the gallery kernels exercises.
  const char* programs[] = {
      R"(
        for i<6> {
          S1: X[i] = 0
          for j<5> {
            S2: X[i] += A[i,j] * B[j]
            for k<4> { S3: C[k,j] += A[i,j] * X[i] }
          }
          for m<3> { S4: D[m,i] += X[i] }
        }
      )",
      R"(
        for a<4>, b<4> { S1: P[a,b] = 0 }
        for a<4> {
          for c<3> { S2: Q[a,c] = 0 }
          for b<4>, c<3> { S3: Q[a,c] += P[a,b] * R[b,c] }
        }
        for a<4>, c<3> { S4: P2[c,a] += Q[a,c] }
      )",
  };
  for (const char* text : programs) {
    ir::Program p = ir::parse_program(text);
    trace::CompiledProgram cp(p, {});
    const auto an = analyze(p);
    for (std::int64_t cap : {2, 3, 5, 9, 17, 40, 1000}) {
      const auto sim = cachesim::simulate_lru(cp, cap);
      const auto pred = predict_misses(an, {}, cap);
      EXPECT_EQ(static_cast<std::uint64_t>(pred.misses), sim.misses)
          << "cap " << cap << "\n" << text;
    }
  }
}

TEST(ModelPrediction, OutcomeBookkeeping) {
  auto g = ir::matmul_tiled();
  const auto env = g.make_env({8, 8, 8}, {4, 4, 4});
  const auto an = analyze(g.prog);
  const auto pred = predict_misses(an, env, 20);
  std::int64_t sum = 0;
  for (const auto& oc : pred.outcomes) {
    sum += oc.misses;
    EXPECT_GE(oc.misses, 0);
    EXPECT_LE(oc.misses, oc.count);
    if (oc.depth_min != kInfDistance) {
      EXPECT_LE(oc.depth_min, oc.depth_max);
    }
  }
  EXPECT_EQ(sum, pred.misses);
  std::int64_t site_sum = 0;
  for (auto m : pred.misses_by_site) site_sum += m;
  EXPECT_EQ(site_sum, pred.misses);
}

TEST(ModelPrediction, CapacitySweepMonotone) {
  auto g = ir::two_index_tiled();
  const auto env = g.make_env({8, 8, 8, 8}, {4, 4, 4, 4});
  const auto an = analyze(g.prog);
  std::int64_t prev = -1;
  for (std::int64_t cap : {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}) {
    const auto pred = predict_misses(an, env, cap);
    if (prev >= 0) {
      EXPECT_LE(pred.misses, prev) << cap;
    }
    prev = pred.misses;
  }
}

TEST(ModelPrediction, IsTheSweepReadAtEveryCrossingPoint) {
  // predict_misses is a query on symbolic_sweep: on the five gallery
  // kernels its total and per-site counts equal the sweep's curve at every
  // capacity where the curve changes, and on both sides of each.
  const std::vector<Case> cases = {
      Case{Prog::kMatmul, {8, 8, 8}, {}, 0},
      Case{Prog::kMatmulTiled, {8, 8, 8}, {4, 2, 4}, 0},
      Case{Prog::kTwoIndexFused, {6, 7, 8, 9}, {}, 0},
      Case{Prog::kTwoIndexUnfused, {6, 7, 8, 9}, {}, 0},
      Case{Prog::kTwoIndexTiled, {8, 8, 8, 8}, {4, 2, 4, 2}, 0},
  };
  for (const Case& c : cases) {
    auto g = make(c.prog);
    const auto env = g.make_env(c.bounds, c.tiles);
    const auto an = analyze(g.prog);
    const SymbolicSweep sweep = symbolic_sweep(an, env);
    ASSERT_EQ(sweep.confidence, Confidence::kExact) << prog_name(c.prog);
    std::vector<std::int64_t> caps;
    for (const std::int64_t d : sweep.crossing_points()) {
      for (const std::int64_t cap : {d - 1, d, d + 1}) {
        if (cap >= 1) caps.push_back(cap);
      }
    }
    ASSERT_FALSE(caps.empty()) << prog_name(c.prog);
    for (const std::int64_t cap : caps) {
      const auto pred = predict_misses(an, env, cap);
      const auto want = sweep.result_at(cap);
      EXPECT_EQ(pred.confidence, Confidence::kExact);
      EXPECT_EQ(static_cast<std::uint64_t>(pred.misses), want.misses)
          << prog_name(c.prog) << " cap " << cap;
      ASSERT_EQ(pred.misses_by_site.size(), want.misses_by_site.size());
      for (std::size_t s = 0; s < want.misses_by_site.size(); ++s) {
        EXPECT_EQ(static_cast<std::uint64_t>(pred.misses_by_site[s]),
                  want.misses_by_site[s])
            << prog_name(c.prog) << " cap " << cap << " site " << s;
      }
    }
  }
}

TEST(SymbolicReport, MatmulRowsHaveTable1Shape) {
  auto g = ir::matmul_tiled();
  const auto an = analyze(g.prog);
  const auto rows = symbolic_report(an);
  // 3 partitions per read site (A,B,C) + 1 for the C write.
  ASSERT_EQ(rows.size(), 10u);
  int infinite = 0;
  for (const auto& r : rows) infinite += r.infinite ? 1 : 0;
  EXPECT_EQ(infinite, 3);  // one cold component per read reference

  // The innermost-pivot partition of A has the constant distance 3
  // (A, B and C elements of the intervening accesses — §4.1's value).
  const auto& a_inner = rows[0];
  EXPECT_FALSE(a_inner.infinite);
  EXPECT_TRUE(a_inner.total.is_const_value(3)) <<
      sym::to_string(a_inner.total);

  // The kT-pivot partition of A has cost Ti*Tj for array A itself.
  const auto& a_kt = rows[1];
  const auto it = a_kt.per_array.find("A");
  ASSERT_NE(it, a_kt.per_array.end());
  EXPECT_TRUE(it->second.equals(sym::Expr::symbol("Ti") *
                                sym::Expr::symbol("Tj")))
      << sym::to_string(it->second);
}

}  // namespace
}  // namespace sdlo::model
