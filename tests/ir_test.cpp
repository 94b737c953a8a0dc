// Unit tests for the loop-nest IR: construction, validation, queries,
// parser, printer and transforms.
#include "support/check.hpp"
#include <gtest/gtest.h>

#include <set>

#include "fuzz/generator.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/program.hpp"
#include "ir/transforms.hpp"

namespace sdlo::ir {
namespace {

using sym::Expr;

Expr S(const std::string& n) { return Expr::symbol(n); }

TEST(ProgramBuild, SimpleNest) {
  Program p;
  NodeId band = p.add_band(Program::kRoot,
                           {Loop{"i", S("N")}, Loop{"j", S("N")}});
  p.add_statement(band,
                  Statement{"S1",
                            {ArrayRef{"A", {Subscript{{"i"}},
                                            Subscript{{"j"}}},
                                      AccessMode::kRead},
                             ArrayRef{"B", {Subscript{{"i"}}},
                                      AccessMode::kWrite}}});
  p.validate();
  EXPECT_EQ(p.statements_in_order().size(), 1u);
  EXPECT_EQ(p.variables(), (std::vector<std::string>{"i", "j"}));
  EXPECT_EQ(p.arrays(), (std::vector<std::string>{"A", "B"}));
  EXPECT_TRUE(p.extent_of("i").equals(S("N")));
  EXPECT_TRUE(p.array_size("A").equals(S("N") * S("N")));
  EXPECT_TRUE(p.instances_of(p.statements_in_order()[0])
                  .equals(S("N") * S("N")));
  EXPECT_TRUE(p.total_accesses().equals(Expr::constant(2) * S("N") * S("N")));
}

TEST(ProgramBuild, PathLoopsOuterFirst) {
  Program p;
  NodeId outer = p.add_band(Program::kRoot, {Loop{"i", S("N")}});
  NodeId inner = p.add_band(outer, {Loop{"j", S("M")}, Loop{"k", S("K")}});
  NodeId s = p.add_statement(
      inner, Statement{"S1", {ArrayRef{"A", {Subscript{{"k"}}},
                                       AccessMode::kRead}}});
  p.validate();
  const auto path = p.path_loops(s);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].var, "i");
  EXPECT_EQ(path[1].var, "j");
  EXPECT_EQ(path[2].var, "k");
}

TEST(ProgramValidate, RejectsRepeatedVarOnPath) {
  Program p;
  NodeId outer = p.add_band(Program::kRoot, {Loop{"i", S("N")}});
  NodeId inner = p.add_band(outer, {Loop{"i", S("N")}});
  p.add_statement(inner, Statement{"S1", {ArrayRef{"A", {Subscript{{"i"}}},
                                                   AccessMode::kRead}}});
  EXPECT_THROW(p.validate(), UnsupportedProgram);
}

TEST(ProgramValidate, RejectsInconsistentExtent) {
  Program p;
  NodeId a = p.add_band(Program::kRoot, {Loop{"i", S("N")}});
  p.add_statement(a, Statement{"S1", {ArrayRef{"A", {Subscript{{"i"}}},
                                               AccessMode::kRead}}});
  NodeId b = p.add_band(Program::kRoot, {Loop{"i", S("M")}});
  p.add_statement(b, Statement{"S2", {ArrayRef{"A", {Subscript{{"i"}}},
                                               AccessMode::kRead}}});
  EXPECT_THROW(p.validate(), UnsupportedProgram);
}

TEST(ProgramValidate, AllowsVarReuseAcrossSiblings) {
  Program p;
  NodeId a = p.add_band(Program::kRoot, {Loop{"i", S("N")}});
  p.add_statement(a, Statement{"S1", {ArrayRef{"A", {Subscript{{"i"}}},
                                               AccessMode::kWrite}}});
  NodeId b = p.add_band(Program::kRoot, {Loop{"i", S("N")}});
  p.add_statement(b, Statement{"S2", {ArrayRef{"A", {Subscript{{"i"}}},
                                               AccessMode::kRead}}});
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.refs_to("A").size(), 2u);
}

TEST(ProgramValidate, RejectsShapeMismatch) {
  Program p;
  NodeId a = p.add_band(Program::kRoot,
                        {Loop{"i", S("N")}, Loop{"j", S("N")}});
  p.add_statement(a, Statement{"S1", {ArrayRef{"A", {Subscript{{"i"}}},
                                               AccessMode::kWrite}}});
  p.add_statement(a, Statement{"S2", {ArrayRef{"A", {Subscript{{"j"}}},
                                               AccessMode::kRead}}});
  EXPECT_THROW(p.validate(), UnsupportedProgram);
}

TEST(ProgramValidate, RejectsOutOfScopeSubscript) {
  Program p;
  NodeId a = p.add_band(Program::kRoot, {Loop{"i", S("N")}});
  p.add_statement(a, Statement{"S1", {ArrayRef{"A", {Subscript{{"q"}}},
                                               AccessMode::kRead}}});
  EXPECT_THROW(p.validate(), UnsupportedProgram);
}

TEST(ProgramValidate, RejectsVarTwiceInOneRef) {
  Program p;
  NodeId a = p.add_band(Program::kRoot, {Loop{"i", S("N")}});
  p.add_statement(a, Statement{"S1", {ArrayRef{"A", {Subscript{{"i"}},
                                                     Subscript{{"i"}}},
                                               AccessMode::kRead}}});
  EXPECT_THROW(p.validate(), UnsupportedProgram);
}

TEST(ProgramValidate, RejectsEmptyProgram) {
  Program p;
  EXPECT_THROW(p.validate(), UnsupportedProgram);
}

TEST(ProgramValidate, MutationAfterValidateThrows) {
  Program p;
  NodeId a = p.add_band(Program::kRoot, {Loop{"i", S("N")}});
  p.add_statement(a, Statement{"S1", {ArrayRef{"A", {Subscript{{"i"}}},
                                               AccessMode::kRead}}});
  p.validate();
  EXPECT_THROW(p.add_band(Program::kRoot, {Loop{"z", S("N")}}), Error);
}

TEST(Gallery, MatmulStructure) {
  auto g = matmul();
  EXPECT_EQ(g.prog.statements_in_order().size(), 1u);
  EXPECT_EQ(g.prog.arrays(), (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(g.bounds, (std::vector<std::string>{"NI", "NJ", "NK"}));
}

TEST(Gallery, TiledTwoIndexMatchesFig6) {
  auto g = two_index_tiled();
  // Statements S2, S5, S7, S9 in program order.
  std::vector<std::string> labels;
  for (NodeId s : g.prog.statements_in_order()) {
    labels.push_back(g.prog.statement(s).label);
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"S2", "S5", "S7", "S9"}));
  // T is the Ti x Tn tile buffer.
  EXPECT_TRUE(g.prog.array_size("T").equals(S("Ti") * S("Tn")));
  // B is indexed by composed (tile, intra) pairs.
  const auto& shape = g.prog.array_shape("B");
  ASSERT_EQ(shape.size(), 2u);
  EXPECT_EQ(shape[0].vars, (std::vector<std::string>{"mT", "mI"}));
  EXPECT_EQ(shape[1].vars, (std::vector<std::string>{"nT", "nI"}));
}

TEST(Gallery, MakeEnvChecksDivisibility) {
  auto g = matmul_tiled();
  EXPECT_NO_THROW(g.make_env({8, 8, 8}, {4, 2, 8}));
  EXPECT_THROW(g.make_env({8, 8, 8}, {3, 2, 8}), Error);
  EXPECT_THROW(g.make_env({8, 8}, {4, 2, 8}), Error);
  EXPECT_THROW(g.make_env({8, 8, 8}, {4, 2, 0}), Error);
}

TEST(Parser, RoundTripSimple) {
  const std::string text = R"(
    for i<N>, j<M> {
      S1: C[i,j] = 0
    }
    for i<N>, j<M>, k<K> {
      S2: C[i,j] += A[i,k] * B[k,j]
    }
  )";
  Program p = parse_program(text);
  EXPECT_EQ(p.statements_in_order().size(), 2u);
  const auto& s2 = p.statement(p.statements_in_order()[1]);
  // += emits reads A,B then read C then write C.
  ASSERT_EQ(s2.accesses.size(), 4u);
  EXPECT_EQ(s2.accesses[0].array, "A");
  EXPECT_EQ(s2.accesses[1].array, "B");
  EXPECT_EQ(s2.accesses[2].array, "C");
  EXPECT_EQ(s2.accesses[2].mode, AccessMode::kRead);
  EXPECT_EQ(s2.accesses[3].mode, AccessMode::kWrite);
}

TEST(Parser, TiledSubscriptsAndExprs) {
  const std::string text = R"(
    for iT<floor(N/Ti)>, iI<Ti> {
      S1: A[iT+iI] = 0
    }
  )";
  Program p = parse_program(text);
  const auto& shape = p.array_shape("A");
  ASSERT_EQ(shape.size(), 1u);
  EXPECT_EQ(shape[0].vars, (std::vector<std::string>{"iT", "iI"}));
  EXPECT_TRUE(p.extent_of("iT").equals(
      sym::floor_div(S("N"), S("Ti"))));
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse_program("for i {"), ParseError);
  EXPECT_THROW(parse_program("for i<N> { S1: A[i] = 0"), ParseError);
  EXPECT_THROW(parse_program("S1 A[i] = 0"), ParseError);
  EXPECT_THROW(parse_expr("1 +"), ParseError);
  EXPECT_THROW(parse_expr("floor(N)"), ParseError);
}

TEST(Parser, ExprForms) {
  EXPECT_TRUE(parse_expr("2*N + 1").equals(
      Expr::constant(2) * S("N") + Expr::constant(1)));
  EXPECT_TRUE(parse_expr("min(N, 4)").equals(
      sym::min(S("N"), Expr::constant(4))));
  EXPECT_TRUE(parse_expr("ceil(N/4)").equals(
      sym::ceil_div(S("N"), Expr::constant(4))));
  EXPECT_TRUE(parse_expr("-(N - 2)").equals(
      Expr::constant(2) - S("N")));
}

TEST(Printer, CodeViewMentionsEverything) {
  auto g = two_index_tiled();
  const std::string code = to_code_string(g.prog);
  for (const char* needle :
       {"for mT", "S2", "S5", "S7", "S9", "B[mT+mI,nT+nI]", "T[iI,nI]",
        "A[iT+iI,jT+jI]"}) {
    EXPECT_NE(code.find(needle), std::string::npos) << code;
  }
}

TEST(Transforms, TileNestMatchesHandTiledGallery) {
  auto tiled = tile_nest(matmul(), {{"i", "Ti"}, {"j", "Tj"}, {"k", "Tk"}});
  // Same loop variables and reference structure as the hand-built Fig. 2.
  auto expect = matmul_tiled();
  EXPECT_EQ(to_code_string(tiled.prog), to_code_string(expect.prog));
  EXPECT_EQ(tiled.tile_of.at("Ti"), "NI");
}

TEST(Transforms, TileNestPartial) {
  auto tiled = tile_nest(matmul(), {{"j", "Tj"}});
  const auto& loops =
      tiled.prog.band_loops(tiled.prog.children(Program::kRoot)[0]);
  ASSERT_EQ(loops.size(), 4u);
  EXPECT_EQ(loops[0].var, "jT");  // tile loops hoisted first
  EXPECT_EQ(loops[1].var, "i");
  EXPECT_EQ(loops[2].var, "jI");
  EXPECT_EQ(loops[3].var, "k");
  const auto& shape = tiled.prog.array_shape("A");
  EXPECT_EQ(shape[1].vars, (std::vector<std::string>{"jT", "jI"}));
}

TEST(Transforms, Interchange) {
  auto g = matmul();
  NodeId band = g.prog.children(Program::kRoot)[0];
  Program p2 = interchange(g.prog, band, {2, 0, 1});
  const auto path = p2.path_loops(p2.statements_in_order()[0]);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].var, "k");
  EXPECT_EQ(path[1].var, "i");
  EXPECT_EQ(path[2].var, "j");
  EXPECT_THROW(interchange(g.prog, band, {0, 0, 1}), Error);
}

TEST(Transforms, InterchangeSingletonBandIsIdentity) {
  Program p = parse_program("for i<N> { S1: W[i] = A[i] }");
  NodeId band = p.children(Program::kRoot)[0];
  Program p2 = interchange(p, band, {0});
  EXPECT_TRUE(structurally_equal(p, p2));
}

TEST(Transforms, InterchangeNonAdjacentSwap) {
  // Swapping the outermost and innermost loops of matmul leaves the middle
  // loop in place: perm is positional, not adjacent-transposition based.
  auto g = matmul();
  NodeId band = g.prog.children(Program::kRoot)[0];
  Program p2 = interchange(g.prog, band, {2, 1, 0});
  const auto& loops = p2.band_loops(band);
  ASSERT_EQ(loops.size(), 3u);
  EXPECT_EQ(loops[0].var, "k");
  EXPECT_EQ(loops[1].var, "j");
  EXPECT_EQ(loops[2].var, "i");
}

TEST(Transforms, InterchangeImperfectBandKeepsChildren) {
  // A band carrying both a statement and a sub-band: interchange reorders
  // the band's own loops and must leave the subtree untouched.
  Program p = parse_program(R"(
    for i<N>, j<N> {
      S1: W[i] = A[i,j]
      for k<N> {
        S2: X[k] += W[i]
      }
    }
  )");
  NodeId band = p.children(Program::kRoot)[0];
  ASSERT_EQ(p.children(band).size(), 2u);
  Program p2 = interchange(p, band, {1, 0});
  EXPECT_TRUE(p2.validated());
  const auto& loops = p2.band_loops(band);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].var, "j");
  EXPECT_EQ(loops[1].var, "i");
  ASSERT_EQ(p2.statements_in_order().size(), 2u);
  EXPECT_EQ(p2.statement(p2.statements_in_order()[1]).label, "S2");
  const auto path = p2.path_loops(p2.statements_in_order()[1]);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[2].var, "k");
}

TEST(Transforms, TileNestSingleLoopBand) {
  GalleryProgram g;
  g.prog = parse_program("for i<N> { S1: W[i] = A[i] }");
  g.bounds = {"N"};
  GalleryProgram tiled = tile_nest(g, {{"i", "Ti"}});
  NodeId band = tiled.prog.children(Program::kRoot)[0];
  const auto& loops = tiled.prog.band_loops(band);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].var, "iT");
  EXPECT_EQ(loops[1].var, "iI");
  EXPECT_EQ(tiled.prog.array_shape("W")[0].vars,
            (std::vector<std::string>{"iT", "iI"}));
  EXPECT_EQ(tiled.tile_of.at("Ti"), "N");
}

TEST(Transforms, TileNestRejectsImperfectAndUnknown) {
  GalleryProgram multi;
  multi.prog = parse_program(R"(
    for i<N> {
      S1: W[i] = A[i]
      S2: X[i] = W[i]
    }
  )");
  EXPECT_THROW(tile_nest(multi, {{"i", "Ti"}}), Error);

  auto g = matmul();
  EXPECT_THROW(tile_nest(g, {{"q", "Tq"}}), Error);
}

// ---------------------------------------------------------------------------
// structural_hash: hash-equality must track structurally_equal
// ---------------------------------------------------------------------------

TEST(StructuralHash, RoundTripAndGalleryConsistency) {
  const std::vector<GalleryProgram> gallery = {
      matmul(), matmul_tiled(), two_index_fused(), two_index_tiled(),
      two_index_unfused()};
  std::set<std::uint64_t> hashes;
  for (const GalleryProgram& g : gallery) {
    const Program back = parse_program(to_code_string(g.prog));
    ASSERT_TRUE(structurally_equal(g.prog, back));
    EXPECT_EQ(structural_hash(g.prog), structural_hash(back));
    hashes.insert(structural_hash(g.prog));
  }
  // The five gallery programs are pairwise distinct; so must be the hashes
  // (no two of this tiny set share one).
  EXPECT_EQ(hashes.size(), gallery.size());
}

TEST(StructuralHash, GeneratedProgramsHashStableUnderReparse) {
  fuzz::ProgramGenerator gen(0x5a5ed);
  for (int i = 0; i < 200; ++i) {
    const fuzz::GeneratedProgram gp = gen.generate();
    const Program back = parse_program(to_code_string(gp.prog));
    ASSERT_TRUE(structurally_equal(gp.prog, back)) << "seed index " << i;
    EXPECT_EQ(structural_hash(gp.prog), structural_hash(back))
        << "seed index " << i;
  }
}

TEST(StructuralHash, PerturbationsChangeTheHash) {
  const Program base =
      parse_program("for i<N>, j<M> { S1: W[i,j] += A[i,j] }");
  const std::uint64_t h = structural_hash(base);
  const std::vector<std::string> variants = {
      "for i<N>, j<M> { S2: W[i,j] += A[i,j] }",   // label
      "for i<N>, j<K> { S1: W[i,j] += A[i,j] }",   // extent
      "for i<N>, j<M> { S1: W[i,j] = A[i,j] }",    // mode (no self-read)
      "for i<N>, j<M> { S1: W[j,i] += A[i,j] }",   // subscript order
      "for j<M>, i<N> { S1: W[i,j] += A[i,j] }",   // loop order
      "for i<N> { for j<M> { S1: W[i,j] += A[i,j] } }",  // band split
  };
  for (const std::string& text : variants) {
    const Program v = parse_program(text);
    ASSERT_FALSE(structurally_equal(base, v)) << text;
    EXPECT_NE(structural_hash(v), h) << text;
  }
}

}  // namespace
}  // namespace sdlo::ir
