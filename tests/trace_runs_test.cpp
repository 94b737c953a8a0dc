// The run-compressed trace (walk_runs) against the naive tree-interpreting
// reference (NaiveInterpreter): decompressing every run group
// iteration-major must reproduce the access stream record for record, on
// the gallery kernels and on generated programs. Also pins the group
// contract the bulk simulation engines rely on — uniform counts within a
// group, bounded group width when compressed — and the generic fallback
// for statement bodies wider than the leaf flattener accepts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/naive_interpreter.hpp"
#include "ir/gallery.hpp"
#include "trace/walker.hpp"

namespace sdlo::trace {
namespace {

struct RunStats {
  std::uint64_t groups = 0;
  std::uint64_t compressed_groups = 0;  // count > 1
  std::uint64_t max_count = 0;
};

/// Decompresses walk_runs and checks it against the naive interpreter in
/// exact program order, validating every group's invariants along the way.
RunStats expect_runs_match(const ir::Program& prog, const sym::Env& env) {
  const CompiledProgram cp(prog, env);
  const auto ref = fuzz::NaiveInterpreter(prog, env).trace();
  RunStats stats;
  std::size_t pos = 0;
  cp.walk_runs([&](const Run* g, std::size_t nrefs) {
    ASSERT_GT(nrefs, 0u);
    const std::uint64_t count = g[0].count;
    ASSERT_GE(count, 1u);
    if (count > 1) {
      // Compressed groups come from one flattened leaf loop, whose body
      // the flattener bounds.
      ASSERT_LE(nrefs, kMaxLeafRefs);
      ++stats.compressed_groups;
    }
    ++stats.groups;
    stats.max_count = std::max(stats.max_count, count);
    for (std::size_t r = 0; r < nrefs; ++r) {
      ASSERT_EQ(g[r].count, count) << "non-uniform count within a group";
    }
    for (std::uint64_t v = 0; v < count; ++v) {
      for (std::size_t r = 0; r < nrefs; ++r, ++pos) {
        ASSERT_LT(pos, ref.size());
        ASSERT_EQ(g[r].at(v), ref[pos].addr) << "access " << pos;
        ASSERT_EQ(g[r].mode, ref[pos].mode) << "access " << pos;
        ASSERT_EQ(g[r].site, ref[pos].site) << "access " << pos;
      }
    }
  });
  EXPECT_EQ(pos, ref.size());
  EXPECT_EQ(pos, cp.total_accesses());
  return stats;
}

TEST(TraceRuns, GalleryProgramsDecompressExactly) {
  struct Case {
    std::string name;
    ir::GalleryProgram g;
    std::vector<std::int64_t> bounds;
    std::vector<std::int64_t> tiles;
  };
  std::vector<Case> cases;
  cases.push_back({"matmul", ir::matmul(), {5, 4, 3}, {}});
  cases.push_back({"matmul_tiled", ir::matmul_tiled(), {8, 6, 4}, {4, 3, 2}});
  cases.push_back({"two_index_fused", ir::two_index_fused(), {4, 3, 5, 2},
                   {}});
  cases.push_back({"two_index_tiled", ir::two_index_tiled(), {8, 4, 6, 4},
                   {2, 2, 3, 2}});
  cases.push_back({"two_index_unfused", ir::two_index_unfused(),
                   {3, 4, 5, 6}, {}});
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto stats =
        expect_runs_match(c.g.prog, c.g.make_env(c.bounds, c.tiles));
    // Every gallery kernel has an innermost loop worth compressing.
    EXPECT_GT(stats.compressed_groups, 0u) << c.name;
  }
}

TEST(TraceRuns, LeafLoopsCompressToExtentCountRuns) {
  auto g = ir::matmul();
  CompiledProgram cp(g.prog, g.make_env({5, 4, 3}, {}));
  // matmul's innermost k-loop has extent 3: every group is that leaf loop.
  cp.walk_runs([&](const sdlo::trace::Run* group,
                   std::size_t nrefs) {
    EXPECT_EQ(group[0].count, 3u);
    EXPECT_EQ(nrefs, 4u);  // C read, A read, B read, C write
  });
}

TEST(TraceRuns, GeneratedProgramsDecompressExactly) {
  fuzz::ProgramGenerator gen(20260807);
  std::uint64_t compressed_total = 0;
  for (int i = 0; i < 200; ++i) {
    const auto gp = gen.generate();
    SCOPED_TRACE("generated program index " + std::to_string(gp.index));
    const auto stats = expect_runs_match(gp.prog, gp.env);
    compressed_total += stats.compressed_groups;
  }
  // The distribution must actually exercise the compressed path.
  EXPECT_GT(compressed_total, 0u);
}

TEST(TraceRuns, WideBodyFallsBackToStatementGroups) {
  // A statement body wider than kMaxLeafRefs: the leaf flattener declines,
  // so the loop must stream one count-1 group per statement execution —
  // and still decompress to the identical access sequence.
  ir::Program prog;
  auto band = prog.add_band(ir::Program::kRoot,
                            {ir::Loop{"i", sym::Expr::symbol("N")}});
  ir::Statement stmt;
  stmt.label = "S0";
  for (std::size_t r = 0; r <= kMaxLeafRefs; ++r) {
    stmt.accesses.push_back(ir::ArrayRef{
        "A" + std::to_string(r), {ir::Subscript{{"i"}}},
        ir::AccessMode::kRead});
  }
  stmt.accesses.push_back(ir::ArrayRef{"Z", {ir::Subscript{{"i"}}},
                                       ir::AccessMode::kWrite});
  prog.add_statement(band, stmt);
  prog.validate();

  const sym::Env env{{"N", 7}};
  ASSERT_GT(stmt.accesses.size(), kMaxLeafRefs);
  const auto stats = expect_runs_match(prog, env);
  EXPECT_EQ(stats.compressed_groups, 0u);
  EXPECT_EQ(stats.max_count, 1u);
  EXPECT_EQ(stats.groups, 7u);  // one group per iteration of i
}

}  // namespace
}  // namespace sdlo::trace
