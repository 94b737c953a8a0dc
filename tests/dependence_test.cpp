// Unit tests for the dependence analysis pass (DESIGN.md §15): subscript
// tests, direction vectors, band summaries, transformation legality, DP3xx
// diagnostics, and the brute-force fuzz oracle that pins all of it to the
// executed trace.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"

namespace sdlo::analysis {
namespace {

std::size_t count_kind(const DependenceAnalysis& da, DepKind k) {
  std::size_t n = 0;
  for (const Dependence& d : da.deps) n += d.kind == k ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Matmul: the canonical example. C(i,k) += A(i,j)*B(j,k) carries exactly one
// dependence family — on C, carried by j — and A/B are read-only.
// ---------------------------------------------------------------------------

TEST(Dependence, MatmulHasOnlyCDependencesCarriedByJ) {
  const auto g = ir::matmul();
  const DependenceAnalysis da = analyze_dependences(g.prog);

  ASSERT_EQ(da.deps.size(), 3u);
  EXPECT_EQ(count_kind(da, DepKind::kFlow), 1u);
  EXPECT_EQ(count_kind(da, DepKind::kAnti), 1u);
  EXPECT_EQ(count_kind(da, DepKind::kOutput), 1u);
  for (const Dependence& d : da.deps) {
    EXPECT_EQ(d.array, "C");
    EXPECT_EQ(d.direction_string(), "(=,*,=)");
    ASSERT_TRUE(d.carried());
    EXPECT_EQ(d.loops[*d.carrier].var, "j");
    // Both array vars (i, k) are bound by common loops: strong SIV digits.
    EXPECT_EQ(d.tests_string(), "siv(i,k)");
  }
}

TEST(Dependence, MatmulLoopIndependentFlags) {
  // += emits reads A,B then read C then write C: the read->write (anti)
  // pair has an all-'=' instance within one (i,j,k) iteration; the
  // write->read (flow) and write->write (output) pairs do not.
  const auto g = ir::matmul();
  const DependenceAnalysis da = analyze_dependences(g.prog);
  for (const Dependence& d : da.deps) {
    EXPECT_EQ(d.loop_independent, d.kind == DepKind::kAnti)
        << dep_kind_name(d.kind);
  }
}

TEST(Dependence, MatmulBandIsFullyPermutable) {
  const auto g = ir::matmul();
  const DependenceAnalysis da = analyze_dependences(g.prog);
  ASSERT_EQ(da.bands.size(), 1u);
  EXPECT_EQ(da.bands[0].loop_vars,
            (std::vector<std::string>{"i", "j", "k"}));
  EXPECT_TRUE(da.bands[0].fully_permutable);
  EXPECT_EQ(da.bands[0].constraining_deps, 0u);

  // Every dependence has a single '*' loop, so all 6 permutations are
  // legal (the classical result for matmul).
  std::vector<int> perm = {0, 1, 2};
  do {
    EXPECT_TRUE(interchange_legal(da, da.bands[0].band, perm));
  } while (std::next_permutation(perm.begin(), perm.end()));

  // Likewise any subset of loops may be tiled.
  EXPECT_TRUE(tiling_legal(da, da.bands[0].band, {"i", "j", "k"}));
}

// ---------------------------------------------------------------------------
// Scalar accumulation: every common loop is a '*' loop, so interchange and
// inner tiling are both constrained.
// ---------------------------------------------------------------------------

TEST(Dependence, ScalarReductionConstrainsTiling) {
  const ir::Program p =
      ir::parse_program("for i<N>, j<N> { S1: T += A[i,j] }");
  const DependenceAnalysis da = analyze_dependences(p);

  ASSERT_EQ(da.bands.size(), 1u);
  EXPECT_FALSE(da.bands[0].fully_permutable);
  EXPECT_GT(da.bands[0].constraining_deps, 0u);
  const ir::NodeId band = da.bands[0].band;

  // The T dependences have direction (*,*): swapping i and j reorders two
  // '*' loops of one dependence.
  EXPECT_TRUE(interchange_legal(da, band, {0, 1}));
  EXPECT_FALSE(interchange_legal(da, band, {1, 0}));

  // Splitting j hoists jT above the i loop while i is a '*' loop outer to
  // j in the same dependences; splitting the outermost '*' loop is fine.
  EXPECT_TRUE(tiling_legal(da, band, {"i"}));
  EXPECT_FALSE(tiling_legal(da, band, {"j"}));
  EXPECT_FALSE(tiling_legal(da, band, {"i", "j"}));

  // The scalar digit is a ZIV test.
  ASSERT_FALSE(da.deps.empty());
  EXPECT_EQ(da.deps[0].tests_string(), "ziv");
}

TEST(Dependence, TwoIndexFusedScalarConstrainsItsBand) {
  // Fig. 1(c): the fused transform accumulates through scalar T; at least
  // one multi-loop band must be flagged interchange-constrained.
  const auto g = ir::two_index_fused();
  const DependenceAnalysis da = analyze_dependences(g.prog);
  bool constrained = false;
  for (const BandSummary& bs : da.bands) {
    if (bs.loop_vars.size() >= 2 && !bs.fully_permutable) constrained = true;
  }
  EXPECT_TRUE(constrained);
}

// ---------------------------------------------------------------------------
// Loop-independent dependences between siblings
// ---------------------------------------------------------------------------

TEST(Dependence, SiblingStatementsLoopIndependentFlow) {
  const ir::Program p = ir::parse_program(R"(
    for i<N> {
      S1: W[i] = A[i]
      S2: X[i] = W[i]
    }
  )");
  const DependenceAnalysis da = analyze_dependences(p);

  // Exactly one dependence: S1 writes W, S2 reads it in the same
  // iteration. The reverse (anti) direction has no carried instance and
  // S2 does not precede S1, so it is dropped.
  ASSERT_EQ(da.deps.size(), 1u);
  const Dependence& d = da.deps[0];
  EXPECT_EQ(d.kind, DepKind::kFlow);
  EXPECT_EQ(d.array, "W");
  EXPECT_EQ(d.src_label, "S1");
  EXPECT_EQ(d.dst_label, "S2");
  EXPECT_EQ(d.direction_string(), "(=)");
  EXPECT_FALSE(d.carried());
  EXPECT_TRUE(d.loop_independent);
}

// ---------------------------------------------------------------------------
// DP3xx diagnostics
// ---------------------------------------------------------------------------

TEST(Dependence, DiagnosticsCarrySourcePositions) {
  const ir::ParsedProgram parsed = ir::parse_program_located(
      "for i<N>, j<N>, k<N> { S1: C[i,k] += A[i,j] * B[j,k] }");
  const DependenceAnalysis da = analyze_dependences(parsed.prog);
  std::vector<Diagnostic> out;
  append_dependence_diagnostics(da, &parsed.locs, out);

  std::set<std::string> ids;
  for (const Diagnostic& d : out) {
    ids.insert(d.id);
    EXPECT_EQ(d.severity, Severity::kNote);
    EXPECT_GE(d.loc.line, 1) << d.id << ": " << d.message;
    EXPECT_GE(d.loc.column, 1) << d.id << ": " << d.message;
  }
  EXPECT_TRUE(ids.count(kDP301FlowDependence));
  EXPECT_TRUE(ids.count(kDP302AntiDependence));
  EXPECT_TRUE(ids.count(kDP303OutputDependence));
  EXPECT_TRUE(ids.count(kDP304BandPermutable));
  EXPECT_FALSE(ids.count(kDP305BandInterchangeConstrained));
}

TEST(Dependence, ConstrainedBandEmitsDp305) {
  const ir::Program p =
      ir::parse_program("for i<N>, j<N> { S1: T += A[i,j] }");
  const DependenceAnalysis da = analyze_dependences(p);
  std::vector<Diagnostic> out;
  append_dependence_diagnostics(da, nullptr, out);
  bool found = false;
  for (const Diagnostic& d : out) {
    if (d.id == kDP305BandInterchangeConstrained) {
      found = true;
      EXPECT_NE(d.message.find("interchange-constraining"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Brute-force oracle: the reported direction vectors must equal, as a set,
// the tuples observed by replaying the trace element by element.
// ---------------------------------------------------------------------------

TEST(DependenceOracle, MatchesTraceReplayOnGeneratedPrograms) {
  fuzz::OracleOptions opts;
  fuzz::apply_family_filter(opts, "dependence");

  fuzz::ProgramGenerator gen(0xdeb5eed);
  for (int i = 0; i < 150; ++i) {
    const fuzz::GeneratedProgram gp = gen.generate();
    const fuzz::OracleReport rep =
        fuzz::check_program(gp.prog, gp.env, opts);
    EXPECT_TRUE(rep.ok()) << describe_failure(gp, rep);
  }
}

}  // namespace
}  // namespace sdlo::analysis
