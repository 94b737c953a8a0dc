// Tests for the transformation advisor (`sdlo advise`, DESIGN.md §15):
// honest scoring, ranked legal recommendations, JSON schema versioning,
// governor truncation, and the end-to-end acceptance check that the top
// matmul recommendation actually reduces simulated misses.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/advisor.hpp"
#include "cachesim/sim.hpp"
#include "fuzz/oracles.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/governor.hpp"
#include "trace/walker.hpp"

namespace sdlo::analysis {
namespace {

// ---------------------------------------------------------------------------
// Acceptance: the top matmul recommendation, re-simulated from its
// transformed program at the reported capacity, beats the baseline.
// ---------------------------------------------------------------------------

TEST(Advisor, TopMatmulRecommendationConfirmedBySimulation) {
  const auto g = ir::matmul();
  const sym::Env env = g.make_env({32, 32, 32}, {});
  AdvisorOptions opts;
  opts.capacity = 1100;  // holds one 32x32 operand plus change
  opts.tile_sizes = {4, 8, 16};
  const AdvisorReport rep = advise(g.prog, env, opts);

  ASSERT_FALSE(rep.advice.empty());
  const Advice& top = rep.advice.front();
  EXPECT_LT(top.delta, 0) << top.title;

  // Independently re-derive both miss counts with the exact profiler.
  const trace::CompiledProgram base(g.prog, env);
  const std::uint64_t base_misses =
      cachesim::profile_stack_distances(base).result(opts.capacity).misses;
  EXPECT_EQ(base_misses,
            static_cast<std::uint64_t>(rep.baseline_misses));

  sym::Env tenv = env;
  for (const auto& [k, v] : top.env_extra) tenv[k] = v;
  const trace::CompiledProgram best(top.transformed, tenv);
  const std::uint64_t best_misses =
      cachesim::profile_stack_distances(best).result(opts.capacity).misses;
  EXPECT_EQ(best_misses, static_cast<std::uint64_t>(top.predicted_misses));
  EXPECT_LT(best_misses, base_misses) << top.title;
}

// ---------------------------------------------------------------------------
// Report invariants
// ---------------------------------------------------------------------------

TEST(Advisor, EveryAdviceCarriesDeltaAndRankingIsSorted) {
  const auto g = ir::matmul();
  const sym::Env env = g.make_env({16, 16, 16}, {});
  AdvisorOptions opts;
  opts.capacity = 300;
  opts.tile_sizes = {4, 8};
  const AdvisorReport rep = advise(g.prog, env, opts);

  ASSERT_FALSE(rep.advice.empty());
  std::int64_t prev = rep.advice.front().predicted_misses;
  for (const Advice& a : rep.advice) {
    EXPECT_EQ(a.delta, a.predicted_misses - rep.baseline_misses) << a.title;
    EXPECT_FALSE(a.title.empty());
    EXPECT_FALSE(a.loop_order.empty()) << a.title;
    EXPECT_TRUE(a.transformed.validated()) << a.title;
    EXPECT_GE(a.predicted_misses, prev) << "ranking not sorted: " << a.title;
    prev = a.predicted_misses;
  }
  EXPECT_EQ(rep.completeness, Completeness::kComplete);
}

TEST(Advisor, MatmulRejectsNoLegalCandidates) {
  // Matmul's band is fully permutable: no candidate may be rejected.
  const auto g = ir::matmul();
  const sym::Env env = g.make_env({8, 8, 8}, {});
  const AdvisorReport rep = advise(g.prog, env, {});
  EXPECT_EQ(rep.rejected_illegal, 0u);
  EXPECT_GE(rep.candidates_scored, 5u);  // the 5 non-identity interchanges
}

TEST(Advisor, ScalarReductionRejectsIllegalInterchanges) {
  const ir::Program p =
      ir::parse_program("for i<M>, j<M> { S1: T += A[i,j] }");
  const sym::Env env = {{"M", 8}};
  const AdvisorReport rep = advise(p, env, {});
  // The (j,i) swap reorders two '*' loops of the T dependences.
  EXPECT_GE(rep.rejected_illegal, 1u);
  for (const Advice& a : rep.advice) {
    EXPECT_NE(a.loop_order, (std::vector<std::string>{"j", "i"}))
        << a.title;
  }
}

// ---------------------------------------------------------------------------
// JSON schema
// ---------------------------------------------------------------------------

TEST(Advisor, JsonReportCarriesVersionAndBaseline) {
  const auto g = ir::matmul();
  const sym::Env env = g.make_env({8, 8, 8}, {});
  const AdvisorReport rep = advise(g.prog, env, {});
  std::ostringstream os;
  render_advice_json(rep, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"version\":\"1.0.0\""), std::string::npos) << out;
  // One line: the daemon frames the report as one NDJSON line.
  EXPECT_EQ(out.find('\n'), out.size() - 1) << out;
  EXPECT_NE(out.find("\"baseline\""), std::string::npos);
  EXPECT_NE(out.find("\"advice\""), std::string::npos);
  EXPECT_NE(out.find("\"delta_pct\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Governor truncation
// ---------------------------------------------------------------------------

TEST(Advisor, GovernorCancellationTruncatesTheReport) {
  const auto g = ir::matmul();
  const sym::Env env = g.make_env({8, 8, 8}, {});
  Governor gov;
  gov.poll_interval = 1;
  gov.cancel.cancel_after(1);
  AdvisorOptions opts;
  opts.governor = &gov;
  const AdvisorReport rep = advise(g.prog, env, opts);
  EXPECT_EQ(rep.completeness, Completeness::kTruncated);
}

// ---------------------------------------------------------------------------
// Legality oracle over the gallery: every recommendation preserves the
// dataflow and reports exact miss counts (acceptance criterion).
// ---------------------------------------------------------------------------

TEST(AdvisorOracle, GalleryAdviceIsLegalAndHonest) {
  fuzz::OracleOptions opts;
  fuzz::apply_family_filter(opts, "dependence,advise");

  struct Case {
    const char* name;
    ir::GalleryProgram g;
    std::vector<std::int64_t> bounds;
    std::vector<std::int64_t> tiles;
  };
  const std::vector<Case> cases = {
      {"matmul", ir::matmul(), {8, 8, 8}, {}},
      {"matmul_tiled", ir::matmul_tiled(), {8, 8, 8}, {4, 4, 4}},
      {"two_index_fused", ir::two_index_fused(), {4, 4, 4, 4}, {}},
      {"two_index_unfused", ir::two_index_unfused(), {4, 4, 4, 4}, {}},
  };
  for (const Case& c : cases) {
    const sym::Env env = c.g.make_env(c.bounds, c.tiles);
    const fuzz::OracleReport rep =
        fuzz::check_program(c.g.prog, env, opts);
    EXPECT_TRUE(rep.ok())
        << c.name << ":\n" << describe_failure(c.g.prog, env, rep);
  }
}

}  // namespace
}  // namespace sdlo::analysis
