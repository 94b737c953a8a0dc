// Tests for the static-analysis subsystem (DESIGN.md §10).
//
// Coverage contract: every stable diagnostic ID (WF0xx / AP1xx / PS2xx) has
// both a triggering negative program and a clean counterpart here; the
// checked_math helpers are exercised at the int64 boundaries the WF007
// check relies on; all ir::gallery programs and TCE-lowered programs lint
// clean; and the `sdlo lint --json` schema is pinned by a golden test.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/advisor.hpp"
#include "analysis/applicability.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lint.hpp"
#include "analysis/misses_driver.hpp"
#include "analysis/parallel_safety.hpp"
#include "analysis/sweep_driver.hpp"
#include "analysis/verbs.hpp"
#include "analysis/verifier.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/program.hpp"
#include "model/analyzer.hpp"
#include "model/distance.hpp"
#include "support/check.hpp"
#include "support/checked_math.hpp"
#include "tce/expr.hpp"
#include "tce/lower.hpp"
#include "tce/opmin.hpp"

namespace sdlo::analysis {
namespace {

using sym::Expr;

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

std::size_t count_id(const std::vector<Diagnostic>& ds, const char* id) {
  return static_cast<std::size_t>(
      std::count_if(ds.begin(), ds.end(),
                    [&](const Diagnostic& d) { return d.id == id; }));
}

bool has_id(const LintReport& rep, const char* id) {
  return count_id(rep.diagnostics, id) > 0;
}

const Diagnostic& first_of(const LintReport& rep, const char* id) {
  for (const auto& d : rep.diagnostics) {
    if (d.id == id) return d;
  }
  throw std::runtime_error(std::string("no diagnostic ") + id);
}

const LoopParallelism& loop_of(const std::vector<LoopParallelism>& loops,
                               const std::string& var) {
  for (const auto& lp : loops) {
    if (lp.var == var) return lp;
  }
  throw std::runtime_error("no loop " + var);
}

// ---------------------------------------------------------------------------
// support/checked_math.hpp boundary behavior (feeds WF007)
// ---------------------------------------------------------------------------

TEST(CheckedMath, AddDetectsInt64Boundaries) {
  EXPECT_EQ(checked_add(kMax - 1, 1), kMax);
  EXPECT_EQ(checked_add(kMin + 1, -1), kMin);
  EXPECT_EQ(checked_add(kMax, kMin), -1);
  EXPECT_THROW(checked_add(kMax, 1), ContractViolation);
  EXPECT_THROW(checked_add(kMin, -1), ContractViolation);
}

TEST(CheckedMath, MulDetectsInt64Boundaries) {
  EXPECT_EQ(checked_mul(kMax / 2, 2), kMax - 1);
  EXPECT_EQ(checked_mul(kMax, 1), kMax);
  EXPECT_EQ(checked_mul(kMax, 0), 0);
  EXPECT_THROW(checked_mul(kMax, 2), ContractViolation);
  EXPECT_THROW(checked_mul(kMin, -1), ContractViolation);
  // The square of a paper-scale four-index footprint (2048^4)^2 overflows.
  const std::int64_t four_index = 2048LL * 2048 * 2048 * 2048;
  EXPECT_THROW(checked_mul(four_index, four_index), ContractViolation);
}

TEST(CheckedMath, SaturatingArithmeticTreatsInfinity) {
  EXPECT_EQ(sat_add(2, 3), 5);
  EXPECT_EQ(sat_add(kInfDistance, 0), kInfDistance);
  EXPECT_EQ(sat_add(1, kInfDistance), kInfDistance);
  EXPECT_EQ(sat_add(kMax - 1, 2), kInfDistance);  // overflow saturates
  EXPECT_EQ(sat_mul(3, 4), 12);
  EXPECT_EQ(sat_mul(kInfDistance, 0), kInfDistance);
  EXPECT_EQ(sat_mul(std::int64_t{1} << 40, std::int64_t{1} << 40),
            kInfDistance);
}

TEST(CheckedMath, FloorAndCeilDivHandleNegativeNumerators) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(-8, 2), -4);
  EXPECT_EQ(floor_div(0, 5), 0);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(8, 2), 4);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

// ---------------------------------------------------------------------------
// Diagnostic framework
// ---------------------------------------------------------------------------

TEST(Diagnostics, SeverityNamesAndCounts) {
  EXPECT_STREQ(severity_name(Severity::kNote), "note");
  EXPECT_STREQ(severity_name(Severity::kWarning), "warning");
  EXPECT_STREQ(severity_name(Severity::kError), "error");
  std::vector<Diagnostic> ds = {
      {kWF001UnboundSubscriptVar, Severity::kError, {}, "q", "m"},
      {kPS201CarriedDependence, Severity::kNote, {}, "j", "m"},
      {kAP102InexactUnion, Severity::kWarning, {}, "A", "m"},
  };
  EXPECT_EQ(count_severity(ds, Severity::kError), 1u);
  EXPECT_EQ(count_severity(ds, Severity::kWarning), 1u);
  EXPECT_EQ(count_severity(ds, Severity::kNote), 1u);
}

TEST(Diagnostics, ToTextRendersCompilerStyle) {
  const Diagnostic d{kWF001UnboundSubscriptVar, Severity::kError,
                     SourceLoc{3, 12}, "q", "unbound variable"};
  EXPECT_EQ(to_text(d, "prog.sdlo"),
            "prog.sdlo:3:12: error: WF001: unbound variable [q]");
  const Diagnostic no_loc{kPS203NoParallelLoop, Severity::kWarning,
                          SourceLoc{}, "", "no DOALL loop"};
  EXPECT_EQ(to_text(no_loc), "warning: PS203: no DOALL loop");
}

TEST(Diagnostics, SortOrderIsPositionThenIdThenObject) {
  std::vector<Diagnostic> ds = {
      {kPS201CarriedDependence, Severity::kNote, SourceLoc{2, 1}, "j", ""},
      {kWF001UnboundSubscriptVar, Severity::kError, SourceLoc{1, 5}, "q", ""},
      {kAP101VaryingDistance, Severity::kNote, SourceLoc{2, 1}, "A", ""},
      {kWF001UnboundSubscriptVar, Severity::kError, SourceLoc{1, 2}, "r", ""},
  };
  sort_diagnostics(ds);
  EXPECT_EQ(ds[0].object, "r");  // 1:2 before 1:5
  EXPECT_EQ(ds[1].object, "q");
  EXPECT_EQ(ds[2].id, kAP101VaryingDistance);  // 2:1 AP101 before PS201
  EXPECT_EQ(ds[3].id, kPS201CarriedDependence);
}

// ---------------------------------------------------------------------------
// Parser source positions (satellite: line/column threading)
// ---------------------------------------------------------------------------

TEST(ParserLocations, SourceMapRecordsBandAndAccessPositions) {
  const auto parsed = ir::parse_program_located(
      "for i<N> {\n"
      "  S1: W[i] = A[i]\n"
      "}\n");
  const ir::Program& p = parsed.prog;
  const ir::NodeId band = p.children(ir::Program::kRoot)[0];
  EXPECT_EQ(parsed.locs.node_loc(band), (SourceLoc{1, 1}));
  const ir::NodeId stmt = p.statements_in_order()[0];
  EXPECT_EQ(parsed.locs.node_loc(stmt), (SourceLoc{2, 3}));
  // Trace order: read of A, then write of W; positions are the name tokens.
  EXPECT_EQ(p.statement(stmt).accesses[0].array, "A");
  EXPECT_EQ(parsed.locs.access_loc({stmt, 0}), (SourceLoc{2, 14}));
  EXPECT_EQ(p.statement(stmt).accesses[1].array, "W");
  EXPECT_EQ(parsed.locs.access_loc({stmt, 1}), (SourceLoc{2, 7}));
  // Unknown constructs report the unknown location.
  EXPECT_FALSE(parsed.locs.node_loc(999).known());
}

TEST(ParserLocations, ParseErrorCarriesLocation) {
  try {
    ir::parse_program("for i<N {");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.loc, (SourceLoc{1, 9}));
    EXPECT_NE(std::string(e.what()).find("line 1:9"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Verifier: negative-program gallery, one trigger per WF ID
// ---------------------------------------------------------------------------

TEST(Verifier, WF000ParseFailureBecomesDiagnostic) {
  const LintReport rep = lint_text("for i<N {");
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.verified);
  ASSERT_EQ(rep.diagnostics.size(), 1u);
  EXPECT_EQ(rep.diagnostics[0].id, kWF000ParseError);
  EXPECT_EQ(rep.diagnostics[0].loc, (SourceLoc{1, 9}));
  // The location is structural; the message must not repeat "line 1:9".
  EXPECT_EQ(rep.diagnostics[0].message.find("line 1:9"), std::string::npos);
}

TEST(Verifier, WF001UnboundSubscriptVariable) {
  const LintReport rep = lint_text("for i<N> { S1: W[i] = A[i,q] }");
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_id(rep, kWF001UnboundSubscriptVar));
  EXPECT_EQ(first_of(rep, kWF001UnboundSubscriptVar).object, "q");
}

TEST(Verifier, WF002DuplicateVariableOnPath) {
  const LintReport rep =
      lint_text("for i<N> { for i<N> { S1: W[i] = 0 } }");
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_id(rep, kWF002DuplicateVarOnPath));
  EXPECT_EQ(first_of(rep, kWF002DuplicateVarOnPath).object, "i");
}

TEST(Verifier, WF003SiblingExtentConflict) {
  const LintReport rep = lint_text(
      "for i<N> { S1: W[i] = 0 }\n"
      "for i<M> { S2: X[i] = 0 }\n");
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_id(rep, kWF003ExtentConflict));
  // Sibling reuse of the *name* is legal; only the extent conflicts.
  EXPECT_FALSE(has_id(rep, kWF002DuplicateVarOnPath));
}

TEST(Verifier, WF004SubscriptStructureConflict) {
  const LintReport rep = lint_text(
      "for i<N>, j<M> {\n"
      "  S1: W[i] = A[i,j]\n"
      "  S2: X[j] = A[i]\n"
      "}\n");
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_id(rep, kWF004SubscriptStructureConflict));
  EXPECT_EQ(first_of(rep, kWF004SubscriptStructureConflict).object, "A");
  // The position points at the *second*, conflicting reference.
  EXPECT_EQ(first_of(rep, kWF004SubscriptStructureConflict).loc.line, 3);
}

TEST(Verifier, WF005VariableTwiceInOneReference) {
  const LintReport rep = lint_text("for i<N> { S1: W[i] = A[i+i] }");
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_id(rep, kWF005VarTwiceInReference));
  EXPECT_EQ(first_of(rep, kWF005VarTwiceInReference).object, "i");
}

TEST(Verifier, WF006EmptyStructures) {
  // No statements at all.
  {
    ir::Program p;
    std::vector<Diagnostic> ds;
    EXPECT_FALSE(verify_program(p, p.try_validate(), nullptr, nullptr, ds));
    EXPECT_EQ(count_id(ds, kWF006EmptyStructure), 1u);
  }
  // A childless band (unreachable through the parser).
  {
    ir::Program p;
    p.add_band(ir::Program::kRoot, {{"i", Expr::symbol("N")}});
    std::vector<Diagnostic> ds;
    EXPECT_FALSE(verify_program(p, p.try_validate(), nullptr, nullptr, ds));
    EXPECT_GE(count_id(ds, kWF006EmptyStructure), 1u);
  }
  // Non-identifier array name and an empty subscript.
  {
    ir::Program p;
    ir::Statement s;
    s.label = "S1";
    s.accesses.push_back(
        {"1bad", {ir::Subscript{{}}}, ir::AccessMode::kWrite});
    p.add_statement(ir::Program::kRoot, s);
    std::vector<Diagnostic> ds;
    EXPECT_FALSE(verify_program(p, p.try_validate(), nullptr, nullptr, ds));
    EXPECT_EQ(count_id(ds, kWF006EmptyStructure), 2u);
  }
}

TEST(Verifier, WF007FootprintOverflow) {
  LintOptions opts;
  opts.env = {{"N", 100'000}};
  const LintReport rep = lint_text(
      "for a<N>, b<N>, c<N>, d<N> { S1: W[a,b,c,d] = 0 }", opts);
  EXPECT_FALSE(rep.ok());
  // Both the footprint of W and the total access count overflow.
  bool footprint = false;
  for (const auto& d : rep.diagnostics) {
    if (d.id == kWF007FootprintOverflow && d.object == "W") footprint = true;
  }
  EXPECT_TRUE(footprint);
}

TEST(Verifier, WF007AccessCountOverflow) {
  LintOptions opts;
  opts.env = {{"N", 100'000}};
  // Scalar footprints stay tiny but N^5 statement instances overflow int64.
  const LintReport rep = lint_text(
      "for a<N>, b<N>, c<N>, d<N>, e<N> { S1: s = t }", opts);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_id(rep, kWF007FootprintOverflow));
  EXPECT_EQ(first_of(rep, kWF007FootprintOverflow).object, "program");
}

TEST(Verifier, WF008UnboundEnvironmentSymbol) {
  LintOptions opts;
  opts.env = {{"M", 4}};
  const LintReport rep = lint_text("for i<N> { S1: W[i] = 0 }", opts);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_id(rep, kWF008UnboundSymbol));
  EXPECT_EQ(first_of(rep, kWF008UnboundSymbol).object, "N");
}

TEST(Verifier, WF009NonPositiveExtentIsAWarningNotAnError) {
  LintOptions opts;
  opts.env = {{"N", 3}};
  const LintReport rep = lint_text("for i<N-5> { S1: W[i] = 0 }", opts);
  EXPECT_TRUE(rep.ok());  // still in the constrained class
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_id(rep, kWF009NonPositiveExtent));
  EXPECT_EQ(first_of(rep, kWF009NonPositiveExtent).severity,
            Severity::kWarning);
}

TEST(Verifier, ReportsEveryViolationAtOnce) {
  // validate() would throw at the first problem; the verifier collects all.
  const LintReport rep = lint_text(
      "for i<N> {\n"
      "  S1: W[i] = A[i,q]\n"
      "  S2: X[i] = A[i] * B[i+i]\n"
      "}\n");
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_id(rep, kWF001UnboundSubscriptVar));
  EXPECT_TRUE(has_id(rep, kWF004SubscriptStructureConflict));
  EXPECT_TRUE(has_id(rep, kWF005VarTwiceInReference));
}

// The two front doors state one class: ir::parse_program throws
// UnsupportedProgram exactly when lint reports a WF001–WF006 error, with
// the first such diagnostic's message ("" stands for neither).
std::string first_class_error(const LintReport& rep) {
  for (const auto& d : rep.diagnostics) {
    if (d.id >= std::string(kWF001UnboundSubscriptVar) &&
        d.id <= std::string(kWF006EmptyStructure)) {
      return d.message;
    }
  }
  return "";
}

std::string unsupported_message(const std::function<void()>& f) {
  try {
    f();
  } catch (const UnsupportedProgram& e) {
    return e.what();
  }
  return "";
}

TEST(Verifier, ParserAndLintAgreeOnTheClass) {
  const std::vector<std::pair<std::string, sym::Env>> programs{
      {"for i<N> { S1: W[i] = A[i,q] }", {}},
      {"for i<N> { for i<N> { S1: W[i] = 0 } }", {}},
      {"for i<N> { S1: W[i] = 0 }\nfor i<M> { S2: X[i] = 0 }\n", {}},
      {"for i<N>, j<M> {\n  S1: W[i] = A[i,j]\n  S2: X[j] = A[i]\n}\n", {}},
      {"for i<N> { S1: W[i] = A[i+i] }", {}},
      {"for i<N> {\n  S1: W[i] = A[i,q]\n  S2: X[i] = A[i] * B[i+i]\n}\n",
       {}},
      // In the class: size findings only, or none.
      {"for a<N>, b<N>, c<N>, d<N> { S1: W[a,b,c,d] = 0 }", {{"N", 100'000}}},
      {"for a<N>, b<N>, c<N>, d<N>, e<N> { S1: s = t }", {{"N", 100'000}}},
      {"for i<N> { S1: W[i] = 0 }", {{"M", 4}}},
      {"for i<N-5> { S1: W[i] = 0 }", {{"N", 3}}},
      {"for i<N>, j<N>, k<N> { S1: C[i,k] += A[i,j] * B[j,k] }", {}},
  };
  for (const auto& [text, env] : programs) {
    LintOptions opts;
    opts.env = env;
    EXPECT_EQ(unsupported_message([&] { (void)ir::parse_program(text); }),
              first_class_error(lint_text(text, opts)))
        << text;
  }
  // The WF006 trees the parser cannot produce, through validate().
  std::vector<ir::Program> trees(3);
  trees[1].add_band(ir::Program::kRoot, {{"i", Expr::symbol("N")}});
  trees[2].add_statement(
      ir::Program::kRoot,
      ir::Statement{"S1",
                    {{"1bad", {ir::Subscript{{}}}, ir::AccessMode::kWrite}}});
  for (ir::Program& tree : trees) {
    const std::string want = first_class_error(lint_program(tree, nullptr));
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(unsupported_message([&] { tree.validate(); }), want);
  }
}

// ---------------------------------------------------------------------------
// Applicability pass (AP101-AP104)
// ---------------------------------------------------------------------------

// Fig. 1(a)-style sibling reuse whose stack distance varies with i: the
// reuse of T[i] in S2 reaches back across the sibling loop into S1.
const char* kSiblingReuseSrc =
    "for i<N> { S1: T[i] = 0 }\n"
    "for i<N> { S2: U[i] = T[i] }\n";

TEST(Applicability, AP101VaryingDistanceAndAP104SiblingReuse) {
  const LintReport rep = lint_text(kSiblingReuseSrc);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(has_id(rep, kAP101VaryingDistance));
  EXPECT_TRUE(has_id(rep, kAP104SiblingReuse));
  EXPECT_EQ(first_of(rep, kAP104SiblingReuse).object, "T");
  ASSERT_TRUE(rep.applicability.has_value());
  bool saw = false;
  for (const auto& site : rep.applicability->sites) {
    if (site.array == "T" && site.statement == "S2") {
      EXPECT_TRUE(site.varying);
      EXPECT_TRUE(site.sibling_case);
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
  // Notes only: the classification does not reduce confidence.
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.applicability->symbolic_exact);
  EXPECT_EQ(rep.applicability->numeric, model::Confidence::kExact);
}

// Symbolic boxes whose endpoints are pairwise incomparable: the
// disjointness / absorption / strip-sweep fast paths all fail and the
// inclusion-exclusion fallback (and its budget) is reached.
std::vector<model::Box> incomparable_boxes(int n) {
  std::vector<model::Box> boxes;
  for (int k = 0; k < n; ++k) {
    std::string endpoint = "B";
    endpoint += std::to_string(k);
    boxes.push_back(model::Box{
        {model::Interval{Expr::constant(0), Expr::symbol(endpoint)}}, {}});
  }
  return boxes;
}

TEST(Applicability, SymbolicUnionBudgetBoundsInclusionExclusion) {
  auto g = ir::matmul();
  const model::SymbolTable st(g.prog);
  // Within budget: inclusion-exclusion resolves the overlap exactly.
  bool exact = false;
  model::symbolic_union(incomparable_boxes(3), st, &exact);
  EXPECT_TRUE(exact);
  // The same boxes with a tighter budget over-approximate.
  exact = true;
  model::symbolic_union(incomparable_boxes(3), st, &exact, 2);
  EXPECT_FALSE(exact);
  // Thirteen boxes exceed the default budget of 12.
  exact = true;
  model::symbolic_union(incomparable_boxes(13), st, &exact);
  EXPECT_FALSE(exact);
}

TEST(Applicability, AP102InexactSymbolicUnion) {
  // Every parser-expressible reuse window decomposes into provably
  // disjoint prefix/suffix boxes, so the over-approximation guard is
  // exercised by planting an overlapping window into a real analysis and
  // driving the same classification + emission path lint uses.
  const auto parsed = ir::parse_program_located(kSiblingReuseSrc);
  auto an = model::analyze(parsed.prog);
  bool planted = false;
  for (auto& pa : an.parts) {
    if (pa.part.divergence == model::Divergence::kCold) continue;
    pa.boxes["T"] = incomparable_boxes(3);
    planted = true;
    break;
  }
  ASSERT_TRUE(planted);
  const ApplicabilityResult ap =
      check_applicability(an, nullptr, 0, {}, /*max_union_boxes=*/2);
  EXPECT_FALSE(ap.symbolic_exact);
  std::vector<Diagnostic> ds;
  append_applicability_diagnostics(ap, &parsed.locs, 0, ds);
  ASSERT_GE(count_id(ds, kAP102InexactUnion), 1u);
  for (const auto& d : ds) {
    if (d.id == kAP102InexactUnion) {
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
  }
  // Within the default budget the same window resolves exactly: no AP102.
  const ApplicabilityResult ok = check_applicability(an, nullptr, 0);
  EXPECT_TRUE(ok.symbolic_exact);
}

TEST(Applicability, AP103InterpolatedPrediction) {
  LintOptions opts;
  opts.env = {{"N", 64}};
  opts.capacity = 70;  // straddles the i-dependent depth range [63, 126]
  opts.predict.enum_limit = 1;
  const LintReport rep = lint_text(kSiblingReuseSrc, opts);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(has_id(rep, kAP103InterpolatedPrediction));
  EXPECT_EQ(first_of(rep, kAP103InterpolatedPrediction).object, "T");
  ASSERT_TRUE(rep.applicability.has_value());
  EXPECT_EQ(rep.applicability->numeric, model::Confidence::kApproximate);
  EXPECT_FALSE(rep.clean());
  // With the default enumeration budget the same prediction is exact.
  LintOptions exact = opts;
  exact.predict = {};
  const LintReport rep2 = lint_text(kSiblingReuseSrc, exact);
  EXPECT_FALSE(has_id(rep2, kAP103InterpolatedPrediction));
  EXPECT_EQ(rep2.applicability->numeric, model::Confidence::kExact);
}

TEST(Applicability, PredictMissesCarriesConfidenceVerdict) {
  const auto parsed = ir::parse_program_located(kSiblingReuseSrc);
  const auto an = model::analyze(parsed.prog);
  const sym::Env env = {{"N", 64}};
  EXPECT_EQ(model::predict_misses(an, env, 70).confidence,
            model::Confidence::kExact);
  model::SymbolicSweepOptions tiny;
  tiny.enum_limit = 1;
  EXPECT_EQ(model::predict_misses(an, env, 70, tiny).confidence,
            model::Confidence::kApproximate);
  EXPECT_STREQ(model::confidence_name(model::Confidence::kExact), "exact");
  EXPECT_STREQ(model::confidence_name(model::Confidence::kApproximate),
               "approximate");
}

// ---------------------------------------------------------------------------
// Parallel-safety pass (PS201-PS204)
// ---------------------------------------------------------------------------

TEST(ParallelSafety, MatmulAccumulationCarriesOverJ) {
  auto g = ir::matmul();
  const auto loops = analyze_parallel_safety(g.prog);
  ASSERT_EQ(loops.size(), 3u);
  // C[i,k] += ...: i and k index C (disjoint iterations); j is the
  // reduction loop and carries the accumulation.
  EXPECT_TRUE(loop_of(loops, "i").doall_safe);
  EXPECT_TRUE(loop_of(loops, "k").doall_safe);
  const auto& j = loop_of(loops, "j");
  EXPECT_FALSE(j.doall_safe);
  ASSERT_EQ(j.carried.size(), 1u);
  EXPECT_EQ(j.carried[0], "C");
  EXPECT_TRUE(loop_of(loops, "i").top_level);
}

TEST(ParallelSafety, PS201NoteNamesTheCarryingArray) {
  auto g = ir::matmul();
  const LintReport rep = lint_program(g.prog, nullptr, {});
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(has_id(rep, kPS201CarriedDependence));
  const Diagnostic& d = first_of(rep, kPS201CarriedDependence);
  EXPECT_EQ(d.object, "j");
  EXPECT_NE(d.message.find("C"), std::string::npos);
}

TEST(ParallelSafety, PS204TileBufferIsPrivatizable) {
  // Fig. 6: the tile buffer T is written first in each nT iteration (S5
  // zeroes it) and never read outside the nT subtree - kill-first, so nT is
  // DOALL after privatizing T even though nT does not index T.
  auto g = ir::two_index_tiled();
  const auto loops = analyze_parallel_safety(g.prog);
  // nT is declared by two sibling bands (B-init nest and compute nest);
  // the compute nest's instance owns the tile buffer.
  bool compute_nt = false;
  for (const auto& lp : loops) {
    if (lp.var != "nT") continue;
    EXPECT_TRUE(lp.doall_safe);
    if (lp.privatized == std::vector<std::string>{"T"}) compute_nt = true;
  }
  EXPECT_TRUE(compute_nt);
  const LintReport rep = lint_program(g.prog, nullptr, {});
  EXPECT_TRUE(has_id(rep, kPS204PrivatizationRequired));
  EXPECT_EQ(first_of(rep, kPS204PrivatizationRequired).object, "nT");
}

TEST(ParallelSafety, PS202FalseSharingOnSmallWriteStride) {
  // W[j,i]: adjacent i iterations write adjacent elements (stride 1 < line
  // 8), adjacent j iterations are a full row apart (stride 16 >= 8).
  const auto parsed =
      ir::parse_program_located("for i<N>, j<M> { S1: W[j,i] = 0 }");
  const sym::Env env = {{"N", 16}, {"M", 16}};
  const auto loops = analyze_parallel_safety(parsed.prog, &env, 8);
  const auto& i = loop_of(loops, "i");
  ASSERT_EQ(i.hazards.size(), 1u);
  EXPECT_EQ(i.hazards[0].array, "W");
  EXPECT_EQ(i.hazards[0].stride, 1);
  EXPECT_EQ(i.hazards[0].line_elems, 8);
  EXPECT_TRUE(loop_of(loops, "j").hazards.empty());

  LintOptions opts;
  opts.env = env;
  opts.line_elems = 8;
  const LintReport rep = lint_program(parsed.prog, &parsed.locs, opts);
  EXPECT_TRUE(has_id(rep, kPS202FalseSharing));
  EXPECT_EQ(first_of(rep, kPS202FalseSharing).severity, Severity::kNote);
  // Without a line size the check is silent.
  const LintReport quiet = lint_program(parsed.prog, &parsed.locs, {});
  EXPECT_FALSE(has_id(quiet, kPS202FalseSharing));
}

TEST(ParallelSafety, PS203WhenNoLoopIsSafe) {
  // s is a scalar accumulated by every iteration: nothing is DOALL.
  const LintReport rep = lint_text("for i<N> { S1: s += A[i] }");
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(has_id(rep, kPS203NoParallelLoop));
  EXPECT_FALSE(rep.clean());
  // Clean counterpart: matmul exposes safe loops, so no PS203.
  auto g = ir::matmul();
  EXPECT_FALSE(has_id(lint_program(g.prog, nullptr, {}),
                      kPS203NoParallelLoop));
}

TEST(ParallelSafety, RequirePartitionSafetyGate) {
  auto g = ir::matmul();
  EXPECT_NO_THROW(require_partition_safety(g.prog, "NI"));
  EXPECT_THROW(require_partition_safety(g.prog, "NJ"), UnsupportedProgram);
  auto t = ir::two_index_tiled();
  EXPECT_NO_THROW(require_partition_safety(t.prog, "NN"));
}

// ---------------------------------------------------------------------------
// Lint driver: gallery and TCE-lowered programs are clean
// ---------------------------------------------------------------------------

void expect_clean(const char* name, const ir::GalleryProgram& g,
                  const sym::Env& env) {
  LintOptions opts;
  opts.env = env;
  opts.capacity = 8192;
  opts.line_elems = 8;
  const LintReport rep = lint_program(g.prog, nullptr, opts);
  std::ostringstream os;
  render_text(rep, os, name);
  EXPECT_TRUE(rep.verified) << name << "\n" << os.str();
  EXPECT_TRUE(rep.ok()) << name << "\n" << os.str();
  EXPECT_TRUE(rep.clean()) << name << "\n" << os.str();
}

TEST(Lint, GalleryProgramsAreClean) {
  expect_clean("matmul", ir::matmul(),
               ir::matmul().make_env({64, 64, 64}, {}));
  expect_clean("matmul_tiled", ir::matmul_tiled(),
               ir::matmul_tiled().make_env({64, 64, 64}, {8, 8, 8}));
  expect_clean("two_index_fused", ir::two_index_fused(),
               ir::two_index_fused().make_env({32, 32, 32, 32}, {}));
  expect_clean("two_index_unfused", ir::two_index_unfused(),
               ir::two_index_unfused().make_env({32, 32, 32, 32}, {}));
  expect_clean("two_index_tiled", ir::two_index_tiled(),
               ir::two_index_tiled().make_env({32, 32, 32, 32},
                                              {8, 8, 8, 8}));
}

TEST(Lint, TceLoweredProgramsAreClean) {
  const auto c = tce::parse_contraction(
      "B[m,n] = sum(i,j) C1[m,i] * C2[n,j] * A[i,j]");
  tce::IndexExtents ext;
  for (const auto& idx : c.all_indices()) ext[idx] = Expr::symbol("V");
  const auto plan = tce::optimize_order(c, ext, {{"V", 6}});
  for (auto g : {tce::lower_unfused(plan, ext),
                 tce::lower_fused_pair(plan, ext)}) {
    sym::Env env;
    for (const auto& b : g.bounds) env[b] = 6;
    LintOptions opts;
    opts.env = env;
    opts.capacity = 12;
    opts.line_elems = 2;
    const LintReport rep = lint_program(g.prog, nullptr, opts);
    std::ostringstream os;
    render_text(rep, os);
    EXPECT_TRUE(rep.ok()) << os.str();
    EXPECT_TRUE(rep.clean()) << os.str();
  }
}

TEST(Lint, LintsUnvalidatedTreesWithoutMutatingThem) {
  const auto parsed = ir::parse_program_located(
      "for i<N> { S1: W[i] = A[i] }", /*validate=*/false);
  EXPECT_FALSE(parsed.prog.validated());
  const LintReport rep = lint_program(parsed.prog, &parsed.locs, {});
  EXPECT_TRUE(rep.verified);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(parsed.prog.validated());  // linted a validated *copy*
}

// ---------------------------------------------------------------------------
// Renderers: text summary and the stable JSON schema
// ---------------------------------------------------------------------------

TEST(Render, TextSummarizesModelAndParallelVerdicts) {
  auto g = ir::matmul();
  const LintReport rep = lint_program(g.prog, nullptr, {});
  std::ostringstream os;
  render_text(rep, os, "matmul");
  const std::string out = os.str();
  EXPECT_NE(out.find("model: symbolic distances exact; prediction "
                     "confidence exact"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("parallel: i=doall j=serial k=doall"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("0 error(s), 0 warning(s),"), std::string::npos) << out;
}

TEST(Render, JsonSchemaIsStable) {
  // Golden output for a diagnostic-free program: any change here is a
  // breaking change to the documented `sdlo lint --json` schema. The report
  // is one compact line, so the daemon can frame it as one NDJSON line.
  const LintReport rep = lint_text("for i<N> { S1: W[i] = A[i] }");
  std::ostringstream os;
  render_json(rep, os);
  EXPECT_EQ(os.str(),
            "{\"version\":\"1.0.0\",\"ok\":true,\"clean\":true,"
            "\"counts\":{\"errors\":0,\"warnings\":0,\"notes\":0},"
            "\"diagnostics\":[],"
            "\"model\":{\"symbolic_exact\":true,\"confidence\":\"exact\","
            "\"sites\":["
            "{\"index\":0,\"statement\":\"S1\",\"array\":\"A\","
            "\"varying\":false,\"exact_symbolic\":true,\"sibling\":false,"
            "\"interpolated\":false},"
            "{\"index\":1,\"statement\":\"S1\",\"array\":\"W\","
            "\"varying\":false,\"exact_symbolic\":true,\"sibling\":false,"
            "\"interpolated\":false}]},"
            "\"parallel\":{\"loops\":["
            "{\"var\":\"i\",\"top_level\":true,\"doall_safe\":true,"
            "\"carried\":[],\"privatized\":[],\"false_sharing\":[]}]}}\n");
}

TEST(Render, JsonNullsModelSectionsWhenVerificationFails) {
  const LintReport rep = lint_text("for i<N> { S1: W[i] = A[i,q] }");
  std::ostringstream os;
  render_json(rep, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"ok\":false"), std::string::npos) << out;
  EXPECT_NE(out.find("\"id\":\"WF001\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"model\":null"), std::string::npos) << out;
  EXPECT_NE(out.find("\"parallel\":null"), std::string::npos) << out;
}

TEST(Render, JsonEscapesControlAndQuoteCharacters) {
  LintReport rep;
  rep.diagnostics.push_back(Diagnostic{
      kWF000ParseError, Severity::kError, SourceLoc{1, 1}, "\"x\"",
      "tab\there \"quoted\" \x01"});
  std::ostringstream os;
  render_json(rep, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\\\"x\\\""), std::string::npos) << out;
  EXPECT_NE(out.find("tab\\there"), std::string::npos) << out;
  EXPECT_NE(out.find("\\u0001"), std::string::npos) << out;
}

TEST(Verbs, ResolveFillsTheDriverDefaultsOnce) {
  // The daemon keys its memo cache on the resolved request and run_verb
  // resolves again, so resolving must fill each default exactly once.
  const VerbRequest misses = resolve({.verb = Verb::kMisses});
  EXPECT_EQ(misses.cap, MissesOptions{}.capacity);
  EXPECT_EQ(resolve({.verb = Verb::kAdvise}).cap, AdvisorOptions{}.capacity);
  EXPECT_EQ(resolve({.verb = Verb::kLint}).cap, LintOptions{}.capacity);
  EXPECT_EQ(resolve({.verb = Verb::kSweep}).line,
            SweepDriverOptions{}.line_elems);
  // No line size means no false-sharing check, so lint keeps it absent.
  EXPECT_FALSE(resolve({.verb = Verb::kLint}).line.has_value());
  // An absent sweep engine stays absent (the driver plans one); a named
  // one resolves to its canonical name, and an unknown one is an error.
  EXPECT_FALSE(resolve({.verb = Verb::kSweep}).engine.has_value());
  EXPECT_EQ(resolve({.verb = Verb::kSweep, .engine = "simulated"}).engine,
            "simulate");
  EXPECT_THROW(resolve({.verb = Verb::kSweep, .engine = "marker"}), Error);
  for (const Verb v : {Verb::kAnalyze, Verb::kMisses, Verb::kSweep,
                       Verb::kLint, Verb::kAdvise}) {
    const VerbRequest once = resolve({.verb = v});
    const VerbRequest twice = resolve(once);
    EXPECT_EQ(twice.cap, once.cap) << verb_name(v);
    EXPECT_EQ(twice.line, once.line) << verb_name(v);
    EXPECT_EQ(parse_verb(verb_name(v)), v);
  }
  EXPECT_FALSE(parse_verb("trace").has_value());
}

}  // namespace
}  // namespace sdlo::analysis
