// Tests for the out-of-core trace spool: the on-disk group stream must
// round-trip every gallery program and a sample of generated programs
// group for group (base, stride, count, mode, site), with its metadata and
// by-access seeks, through any read window size, and honor the atomic
// temp-file-then-rename contract under the spool-write failpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/check.hpp"
#include "support/failpoints.hpp"
#include "support/governor.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace {

using namespace sdlo;
using trace::CompiledProgram;
using trace::Run;
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
    expect_same_stream(collect_groups(spool), collect_groups(c.cp),
                       c.name);
    std::remove(path.c_str());
  }
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

TEST(Spool, WalkRunsMatchesTheCompiledProgramGroupForGroup) {
  // Generated programs mix statement groups, wide fallback bodies and
  // leaf loops of every stride sign — shapes the gallery does not reach.
  fuzz::ProgramGenerator gen(20261017);
  const std::string path = temp_spool("sdlo_spool_generated.spl");
  for (int i = 0; i < 40; ++i) {
    const auto gp = gen.generate();
    const CompiledProgram cp(gp.prog, gp.env);
    trace::spool_program(path, cp);
    const SpooledTrace spool(path);
    EXPECT_EQ(spool.total_accesses(), cp.total_accesses()) << i;
    expect_same_stream(collect_groups(spool), collect_groups(cp),
                       "generated program " + std::to_string(i));
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

}  // namespace
