// Differential test: the compiled trace walker against a deliberately
// naive tree-interpreting reference, on the gallery programs and random
// programs. Any disagreement in order, address or mode is a bug in the
// lowering (strides, slot reuse, site numbering).
#include <gtest/gtest.h>

#include "fuzz/naive_interpreter.hpp"
#include "ir/gallery.hpp"
#include "trace/walker.hpp"

namespace sdlo::trace {
namespace {

void expect_identical(const ir::Program& prog, const sym::Env& env) {
  const auto want = fuzz::NaiveInterpreter(prog, env).trace();
  std::vector<Access> got;
  CompiledProgram cp(prog, env);
  cp.walk([&](const Access& a) { got.push_back(a); });
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(cp.total_accesses(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].addr, want[i].addr) << "position " << i;
    ASSERT_EQ(got[i].mode, want[i].mode) << "position " << i;
    ASSERT_EQ(got[i].site, want[i].site) << "position " << i;
  }
}

TEST(WalkerDifferential, Matmul) {
  auto g = ir::matmul();
  expect_identical(g.prog, g.make_env({5, 4, 3}, {}));
}

TEST(WalkerDifferential, MatmulTiled) {
  auto g = ir::matmul_tiled();
  expect_identical(g.prog, g.make_env({8, 6, 4}, {4, 3, 2}));
}

TEST(WalkerDifferential, TwoIndexFused) {
  auto g = ir::two_index_fused();
  expect_identical(g.prog, g.make_env({4, 3, 5, 2}, {}));
}

TEST(WalkerDifferential, TwoIndexTiled) {
  auto g = ir::two_index_tiled();
  expect_identical(g.prog, g.make_env({8, 4, 6, 4}, {2, 2, 3, 2}));
}

TEST(WalkerDifferential, TwoIndexUnfused) {
  auto g = ir::two_index_unfused();
  expect_identical(g.prog, g.make_env({3, 4, 5, 6}, {}));
}

}  // namespace
}  // namespace sdlo::trace
