// Tests for the model's options and the prediction's bookkeeping: a tiny
// enum_limit forces partitions onto the sweep's probe path, whose estimate
// must stay within the interpolation error bound and never be reported
// exact; the per-partition flags and depth extremes must reflect what the
// sweep did.
#include "support/check.hpp"
#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "cachesim/sim.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "model/analyzer.hpp"
#include "model/symbolic_sweep.hpp"
#include "support/checked_math.hpp"
#include "trace/walker.hpp"

namespace sdlo::model {
namespace {

TEST(PredictOptions, ProbePathMatchesExactOnGallery) {
  // Force the probe path everywhere; for these kernels every partition is
  // either constant-depth or cleanly classified by its corner extremes, so
  // the result must stay within the interpolation bound.
  SymbolicSweepOptions probe_only;
  probe_only.enum_limit = 0;
  for (auto g : {ir::matmul_tiled(), ir::two_index_tiled()}) {
    std::vector<std::int64_t> bounds(g.bounds.size(), 32);
    std::vector<std::int64_t> tiles(g.tiles.size(), 8);
    const auto env = g.make_env(bounds, tiles);
    const auto an = analyze(g.prog);
    for (std::int64_t cap : {64, 4096}) {
      const auto exact = predict_misses(an, env, cap);
      const auto probed = predict_misses(an, env, cap, probe_only);
      // Approximated partitions may be statistically estimated: allow 2%
      // total slack, and require exactness when nothing was approximated.
      bool any_approx = false;
      for (const auto& oc : probed.outcomes) {
        any_approx = any_approx || oc.approximated;
      }
      EXPECT_EQ(probed.confidence == Confidence::kApproximate, any_approx);
      if (!any_approx) {
        EXPECT_EQ(probed.misses, exact.misses) << cap;
      } else {
        EXPECT_NEAR(static_cast<double>(probed.misses),
                    static_cast<double>(exact.misses),
                    0.02 * static_cast<double>(exact.misses) + 64.0)
            << cap;
      }
    }
  }
}

TEST(PredictOptions, EnumeratedFlagSetOnExactPath) {
  auto g = ir::matmul_tiled();
  const auto env = g.make_env({8, 8, 8}, {4, 4, 4});
  const auto an = analyze(g.prog);
  const auto pred = predict_misses(an, env, 32);
  bool saw_enumerated = false;
  for (const auto& oc : pred.outcomes) {
    if (oc.depth_min != kInfDistance) {
      EXPECT_TRUE(oc.enumerated);
      saw_enumerated = true;
      EXPECT_FALSE(oc.approximated);
    }
  }
  EXPECT_TRUE(saw_enumerated);
}

TEST(PredictOptions, ProbeFlagsOnForcedProbePath) {
  // With no enumeration budget, only a partition whose reductions leave
  // nothing to enumerate keeps an enumerated histogram; every other
  // non-cold partition is probed, and a probe never counts as enumeration.
  SymbolicSweepOptions probe_only;
  probe_only.enum_limit = 0;
  auto g = ir::matmul_tiled();
  const auto env = g.make_env({8, 8, 8}, {4, 4, 4});
  const auto an = analyze(g.prog);
  const SymbolicSweep sweep = symbolic_sweep(an, env, probe_only);
  const auto pred = predict_at(an, sweep, env, 32);
  ASSERT_EQ(pred.outcomes.size(), sweep.parts.size());
  bool saw_probed = false;
  for (std::size_t i = 0; i < sweep.parts.size(); ++i) {
    const PartitionCurve& pc = sweep.parts[i];
    const PartitionOutcome& oc = pred.outcomes[i];
    EXPECT_EQ(oc.part_index, pc.part_index);
    if (pc.probed) {
      saw_probed = true;
      EXPECT_FALSE(oc.enumerated);
      EXPECT_EQ(oc.approximated, !pc.exact);
    } else if (!pc.cold) {
      EXPECT_EQ(pc.combos_enumerated, 0);
      EXPECT_TRUE(oc.enumerated);
    }
  }
  EXPECT_TRUE(saw_probed);
}

TEST(PredictOptions, RejectsNonPositiveCapacity) {
  auto g = ir::matmul();
  const auto an = analyze(g.prog);
  EXPECT_THROW(predict_misses(an, g.make_env({4, 4, 4}, {}), 0),
               ContractViolation);
}

TEST(PredictOptions, DepthExtremesAreTheHistogramExtremes) {
  for (auto g : {ir::matmul_tiled(), ir::two_index_tiled()}) {
    std::vector<std::int64_t> bounds(g.bounds.size(), 16);
    std::vector<std::int64_t> tiles(g.tiles.size(), 4);
    const auto env = g.make_env(bounds, tiles);
    const auto an = analyze(g.prog);
    const SymbolicSweep sweep = symbolic_sweep(an, env);
    ASSERT_EQ(sweep.confidence, Confidence::kExact);
    const auto pred = predict_at(an, sweep, env, 100);
    ASSERT_EQ(pred.outcomes.size(), sweep.parts.size());
    for (std::size_t i = 0; i < sweep.parts.size(); ++i) {
      const PartitionCurve& pc = sweep.parts[i];
      const PartitionOutcome& oc = pred.outcomes[i];
      if (pc.cold) {
        EXPECT_EQ(oc.depth_min, kInfDistance);
        EXPECT_EQ(oc.depth_max, kInfDistance);
        continue;
      }
      ASSERT_FALSE(pc.depth_counts.empty());
      EXPECT_EQ(oc.depth_min, pc.depth_counts.begin()->first);
      EXPECT_EQ(oc.depth_max, pc.depth_counts.rbegin()->first);
      EXPECT_LE(oc.depth_min, oc.depth_max);
    }
  }
}

TEST(PredictOptions, ForcedInexactIsApproximateWithinBoundAndLintFlagsIt) {
  // T's reuse distance varies with i over [N-1, 2N-2]; an enumeration
  // budget of one combination leaves it to the probes, and capacity 70
  // straddles the probed range, so its misses are interpolated.
  const char* src =
      "for i<N> { S1: T[i] = 0 }\n"
      "for i<N> { S2: U[i] = T[i] }\n";
  const ir::Program prog = ir::parse_program(src);
  const sym::Env env = {{"N", 64}};
  const std::int64_t cap = 70;
  SymbolicSweepOptions tiny;
  tiny.enum_limit = 1;
  const auto an = analyze(prog);
  const auto pred = predict_misses(an, env, cap, tiny);
  EXPECT_EQ(pred.confidence, Confidence::kApproximate);
  bool any_approx = false;
  for (const auto& oc : pred.outcomes) {
    if (!oc.approximated) continue;
    any_approx = true;
    EXPECT_FALSE(oc.enumerated);
    EXPECT_LE(oc.depth_min, cap);
    EXPECT_GT(oc.depth_max, cap);
  }
  EXPECT_TRUE(any_approx);

  trace::CompiledProgram cp(prog, env);
  const auto sim = cachesim::simulate_lru(cp, cap);
  EXPECT_NEAR(static_cast<double>(pred.misses),
              static_cast<double>(sim.misses),
              0.02 * static_cast<double>(sim.misses) + 64.0);
  // The default budget resolves it exactly.
  EXPECT_EQ(static_cast<std::uint64_t>(predict_misses(an, env, cap).misses),
            sim.misses);

  analysis::LintOptions lo;
  lo.env = env;
  lo.capacity = cap;
  lo.predict = tiny;
  const analysis::LintReport rep = analysis::lint_text(src, lo);
  bool ap103 = false;
  bool ap105 = false;
  for (const auto& d : rep.diagnostics) {
    ap103 = ap103 || d.id == analysis::kAP103InterpolatedPrediction;
    ap105 = ap105 || d.id == analysis::kAP105SweepInexact;
  }
  EXPECT_TRUE(ap103);
  EXPECT_TRUE(ap105);
  ASSERT_TRUE(rep.applicability.has_value());
  EXPECT_EQ(rep.applicability->numeric, Confidence::kApproximate);
  EXPECT_EQ(rep.applicability->sweep, Confidence::kApproximate);
}

}  // namespace
}  // namespace sdlo::model
