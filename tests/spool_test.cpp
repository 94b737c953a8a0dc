// Tests for the out-of-core trace spool: the on-disk group stream must
// round-trip every gallery program bit-for-bit (group stream, batched
// stream, metadata, by-access seeks) through any read window size, feed the
// sweep engines with results identical to the in-memory walker, honor the
// atomic temp-file-then-rename contract under the spool-write failpoint,
// and RunTrace::materialize must convert a too-small memory budget into
// BudgetExceeded(kMemory) while the spool completes the same job on disk.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cachesim/sweep.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/check.hpp"
#include "support/failpoints.hpp"
#include "support/governor.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace {

using namespace sdlo;
using trace::Access;
using trace::CompiledProgram;
using trace::Run;
using trace::RunTrace;
using trace::SpooledTrace;
using trace::SpoolReadOptions;

std::string temp_spool(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The fully decoded group stream, flattened with group boundaries.
struct GroupStream {
  std::vector<Run> runs;
  std::vector<std::size_t> sizes;
};

template <typename Source>
GroupStream collect_groups(const Source& src) {
  GroupStream s;
  src.walk_runs([&](const Run* g, std::size_t nrefs) {
    s.runs.insert(s.runs.end(), g, g + nrefs);
    s.sizes.push_back(nrefs);
  });
  return s;
}

void expect_same_stream(const GroupStream& got, const GroupStream& want,
                        const std::string& what) {
  ASSERT_EQ(got.sizes, want.sizes) << what;
  ASSERT_EQ(got.runs.size(), want.runs.size()) << what;
  for (std::size_t i = 0; i < got.runs.size(); ++i) {
    EXPECT_EQ(got.runs[i].base, want.runs[i].base) << what << " run " << i;
    EXPECT_EQ(got.runs[i].stride, want.runs[i].stride) << what << " " << i;
    EXPECT_EQ(got.runs[i].count, want.runs[i].count) << what << " " << i;
    EXPECT_EQ(got.runs[i].mode, want.runs[i].mode) << what << " " << i;
    EXPECT_EQ(got.runs[i].site, want.runs[i].site) << what << " " << i;
  }
}

template <typename Source>
std::vector<Access> collect_batched(const Source& src, std::size_t batch) {
  std::vector<Access> out;
  src.walk_batched(
      [&](const Access* a, std::size_t n) {
        out.insert(out.end(), a, a + n);
      },
      batch);
  return out;
}

struct GalleryCase {
  std::string name;
  CompiledProgram cp;
};

std::vector<GalleryCase> gallery_cases() {
  std::vector<GalleryCase> cases;
  const auto add = [&](const std::string& name, const ir::GalleryProgram& g,
                       const std::vector<std::int64_t>& bounds,
                       const std::vector<std::int64_t>& tiles) {
    cases.push_back({name, CompiledProgram(g.prog,
                                           g.make_env(bounds, tiles))});
  };
  add("matmul", ir::matmul(), {12, 12, 12}, {});
  add("matmul_tiled", ir::matmul_tiled(), {16, 16, 16}, {4, 8, 4});
  add("two_index_fused", ir::two_index_fused(), {8, 8, 8, 8}, {});
  add("two_index_tiled", ir::two_index_tiled(), {16, 16, 16, 16},
      {4, 8, 8, 4});
  add("two_index_unfused", ir::two_index_unfused(), {8, 8, 8, 8}, {});
  return cases;
}

TEST(Spool, RoundTripsEveryGalleryProgram) {
  for (const auto& c : gallery_cases()) {
    const std::string path = temp_spool("sdlo_spool_" + c.name + ".spl");
    trace::spool_program(path, c.cp);
    const SpooledTrace spool(path);

    EXPECT_EQ(spool.total_accesses(), c.cp.total_accesses()) << c.name;
    EXPECT_EQ(spool.group_count(), c.cp.group_count()) << c.name;
    EXPECT_EQ(spool.num_sites(), c.cp.num_sites()) << c.name;
    EXPECT_EQ(spool.address_space_size(), c.cp.address_space_size())
        << c.name;
    for (std::int64_t line : {1, 4, 8}) {
      EXPECT_EQ(spool.footprint_lines(line), c.cp.footprint_lines(line))
          << c.name << " line=" << line;
    }

    expect_same_stream(collect_groups(spool), collect_groups(c.cp),
                       c.name);
    EXPECT_EQ(collect_batched(spool, 512).size(),
              collect_batched(c.cp, 512).size())
        << c.name;
    std::remove(path.c_str());
  }
}

TEST(Spool, BatchedWalkMatchesCompiledProgramExactly) {
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  const std::string path = temp_spool("sdlo_spool_batched.spl");
  trace::spool_program(path, cp);
  const SpooledTrace spool(path);
  for (std::size_t batch : {1u, 7u, 4096u}) {
    const auto got = collect_batched(spool, batch);
    const auto want = collect_batched(cp, batch);
    ASSERT_EQ(got.size(), want.size()) << "batch=" << batch;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].addr, want[i].addr) << "batch=" << batch;
      ASSERT_EQ(got[i].mode, want[i].mode) << "batch=" << batch;
      ASSERT_EQ(got[i].site, want[i].site) << "batch=" << batch;
    }
  }
  std::remove(path.c_str());
}

TEST(Spool, TinyReadWindowsDecodeIdentically) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  const std::string path = temp_spool("sdlo_spool_window.spl");
  trace::spool_program(path, cp);
  const auto want = collect_groups(cp);
  for (std::size_t window : {64u, 256u, 4096u}) {
    SpoolReadOptions opt;
    opt.window_bytes = window;
    const SpooledTrace spool(path, opt);
    expect_same_stream(collect_groups(spool), want,
                       "window=" + std::to_string(window));
  }
  std::remove(path.c_str());
}

TEST(Spool, RangeWalksAndAccessSeeksMatchTheWalker) {
  const auto g = ir::two_index_tiled();
  const CompiledProgram cp(g.prog,
                           g.make_env({16, 16, 16, 16}, {4, 8, 8, 4}));
  const std::string path = temp_spool("sdlo_spool_range.spl");
  trace::spool_program(path, cp);
  const SpooledTrace spool(path);
  const auto full = collect_groups(cp);
  const std::uint64_t total = cp.group_count();

  for (std::uint64_t first : {std::uint64_t{0}, total / 3, total - 1}) {
    const std::uint64_t n = std::min<std::uint64_t>(total - first, 57);
    GroupStream want;
    cp.walk_runs_range(first, n, [&](const trace::Run* grp,
                                     std::size_t nrefs) {
      want.runs.insert(want.runs.end(), grp, grp + nrefs);
      want.sizes.push_back(nrefs);
    });
    GroupStream got;
    spool.walk_runs_range(first, n, [&](const trace::Run* grp,
                                        std::size_t nrefs) {
      got.runs.insert(got.runs.end(), grp, grp + nrefs);
      got.sizes.push_back(nrefs);
    });
    expect_same_stream(got, want, "range first=" + std::to_string(first));
  }

  for (std::uint64_t a : {std::uint64_t{0}, cp.total_accesses() / 2,
                          cp.total_accesses() - 1}) {
    EXPECT_EQ(spool.group_of_access(a), cp.group_of_access(a)) << a;
  }
  std::remove(path.c_str());
}

TEST(Spool, FeedsTheSweepEnginesBitIdentically) {
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  const std::string path = temp_spool("sdlo_spool_sweep.spl");
  trace::spool_program(path, cp);
  const SpooledTrace spool(path);

  std::vector<cachesim::SweepConfig> configs;
  for (std::int64_t cap : {2, 16, 250, 1024})
    configs.push_back({cap, 1, 0, cachesim::Replacement::kLru});
  configs.push_back({128, 4, 0, cachesim::Replacement::kLru});
  configs.push_back({64, 4, 4, cachesim::Replacement::kLru});

  const auto want = cachesim::simulate_sweep(cp, configs);
  const auto got = cachesim::simulate_sweep(spool, configs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].misses, want[i].misses) << i;
    EXPECT_EQ(got[i].misses_by_site, want[i].misses_by_site) << i;
  }
  std::remove(path.c_str());
}

TEST(Spool, DeltaEncodingShrinksTheFile) {
  // Loop nests re-execute the same leaves with shifted bases, so most
  // groups are deltas: the body must undercut the smallest possible
  // all-full encoding of the same stream (tag, width and count, then three
  // varints per run, each at least one byte).
  const auto g = ir::matmul_tiled();
  const CompiledProgram cp(g.prog, g.make_env({16, 16, 16}, {4, 8, 4}));
  trace::SpoolWriter writer(temp_spool("sdlo_spool_size.spl"));
  std::uint64_t full_floor = 0;
  cp.walk_runs([&](const trace::Run* group, std::size_t nrefs) {
    full_floor += 3 + 3 * nrefs;
    writer.add_group(group, nrefs);
  });
  EXPECT_LT(writer.body_bytes(), full_floor);
}

TEST(Spool, SeeksAcrossIndexStrideBoundaries) {
  // More groups than kSpoolIndexStride: by-group and by-access seeks cross
  // real index entries, and each indexed landing site must be a
  // self-contained full group (the writer forces one there), so a
  // cursor opened mid-file decodes delta chains identically to a cursor
  // that walked from the start.
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({70, 70, 70}, {}));
  ASSERT_GT(cp.group_count(), trace::kSpoolIndexStride);
  const std::string path = temp_spool("sdlo_spool_stride.spl");
  trace::spool_program(path, cp);
  const SpooledTrace spool(path);
  for (std::uint64_t first :
       {trace::kSpoolIndexStride - 3, trace::kSpoolIndexStride,
        trace::kSpoolIndexStride + 1, cp.group_count() - 9}) {
    const std::uint64_t n =
        std::min<std::uint64_t>(cp.group_count() - first, 8);
    GroupStream want;
    cp.walk_runs_range(first, n, [&](const trace::Run* grp,
                                     std::size_t nrefs) {
      want.runs.insert(want.runs.end(), grp, grp + nrefs);
      want.sizes.push_back(nrefs);
    });
    GroupStream got;
    spool.walk_runs_range(first, n, [&](const trace::Run* grp,
                                        std::size_t nrefs) {
      got.runs.insert(got.runs.end(), grp, grp + nrefs);
      got.sizes.push_back(nrefs);
    });
    expect_same_stream(got, want, "first=" + std::to_string(first));
  }
  for (std::uint64_t a :
       {cp.total_accesses() / 2, cp.total_accesses() - 1}) {
    EXPECT_EQ(spool.group_of_access(a), cp.group_of_access(a))
        << "access " << a;
  }
  std::remove(path.c_str());
}

TEST(Spool, FileGuardRemovesUnlessReleased) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({8, 8, 8}, {}));
  const std::string path = temp_spool("sdlo_spool_guard.spl");
  {
    trace::SpoolFileGuard guard(path);
    trace::spool_program(guard.path(), cp);
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path)) << "guard must remove";
  {
    trace::SpoolFileGuard guard(path);
    trace::spool_program(guard.path(), cp);
    guard.release();
  }
  EXPECT_TRUE(std::filesystem::exists(path)) << "released guard must keep";
  std::remove(path.c_str());
  {
    // Removing a never-written path is a quiet no-op.
    trace::SpoolFileGuard guard(temp_spool("sdlo_spool_guard_absent.spl"));
  }
}

TEST(Spool, WriteFailpointLeavesNoFileBehind) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({8, 8, 8}, {}));
  const std::string path = temp_spool("sdlo_spool_failpoint.spl");
  std::remove(path.c_str());
  {
    failpoints::ScopedFailpoint fp(
        failpoints::kSpoolWrite,
        failpoints::Spec{failpoints::Action::kFailAlloc, 0});
    EXPECT_THROW(trace::spool_program(path, cp), trace::IoError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Disarmed, the same write succeeds and the file appears atomically.
  trace::spool_program(path, cp);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Spool, RejectsMissingAndMalformedFiles) {
  EXPECT_THROW(SpooledTrace{temp_spool("sdlo_no_such_spool.spl")},
               trace::IoError);
  const std::string path = temp_spool("sdlo_bad_spool.spl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a spool file";
  }
  EXPECT_THROW(SpooledTrace{path}, trace::IoError);
  // The retired SDLOSPL1 container is recognized and refused, typed.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "SDLOSPL1" << std::string(40, '\0');
  }
  try {
    const SpooledTrace v1(path);
    ADD_FAILURE() << "a version-1 spool was accepted";
  } catch (const trace::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("version-1"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(RunTraceTest, MaterializesBitIdenticalGroups) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({10, 10, 10}, {}));
  const RunTrace rt = RunTrace::materialize(cp);
  EXPECT_EQ(rt.total_accesses(), cp.total_accesses());
  EXPECT_EQ(rt.group_count(), cp.group_count());
  EXPECT_GT(rt.bytes(), 0u);
  expect_same_stream(collect_groups(rt), collect_groups(cp), "run-trace");
  for (std::uint64_t a : {std::uint64_t{0}, cp.total_accesses() / 2,
                          cp.total_accesses() - 1}) {
    EXPECT_EQ(rt.group_of_access(a), cp.group_of_access(a)) << a;
  }
}

TEST(RunTraceTest, BudgetDeniedMaterializationDegradesToSpool) {
  const auto g = ir::matmul();
  const CompiledProgram cp(g.prog, g.make_env({12, 12, 12}, {}));

  // A ceiling far below the trace bytes: materialization must refuse with
  // the typed signal...
  MemoryBudget tight(1024);
  Governor gov;
  gov.memory = &tight;
  try {
    const RunTrace rt = RunTrace::materialize(cp, &gov);
    FAIL() << "materialize() ignored the memory budget";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind, BudgetExceeded::Kind::kMemory);
  }
  EXPECT_EQ(tight.used(), 0u);  // denial released every slab

  // ...while the spool completes the same sweep under the same governor,
  // since its peak memory is the read window, not the trace.
  const std::string path = temp_spool("sdlo_spool_degrade.spl");
  trace::spool_program(path, cp);
  SpoolReadOptions opt;
  opt.window_bytes = 256;
  const SpooledTrace spool(path, opt);
  std::vector<cachesim::SweepConfig> configs{
      {16, 1, 0, cachesim::Replacement::kLru}};
  const auto got = cachesim::simulate_sweep(spool, configs, nullptr,
                                            trace::TraceMode::kRuns, &gov);
  const auto want = cachesim::simulate_sweep(cp, configs);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].completeness, Completeness::kComplete);
  EXPECT_EQ(got[0].misses, want[0].misses);
  EXPECT_EQ(got[0].misses_by_site, want[0].misses_by_site);
  std::remove(path.c_str());
}

}  // namespace
