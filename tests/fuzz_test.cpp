// Tests of the differential fuzzing subsystem itself: generator
// determinism, the parser↔printer round-trip the artifact format depends
// on, set-associative edge geometries, and the counterexample reducer
// (exercised against a deliberately broken off-by-one cache engine).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cachesim/parallel_stack.hpp"
#include "cachesim/sim.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reducer.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/check.hpp"
#include "support/failpoints.hpp"
#include "support/governor.hpp"
#include "trace/walker.hpp"

namespace sdlo {
namespace {

TEST(FuzzGeneratorTest, DeterministicAcrossInstances) {
  fuzz::ProgramGenerator a(42);
  fuzz::ProgramGenerator b(42);
  for (int i = 0; i < 4; ++i) {
    const auto pa = a.generate();
    const auto pb = b.generate();
    EXPECT_EQ(pa.index, i);
    EXPECT_TRUE(ir::structurally_equal(pa.prog, pb.prog))
        << ir::to_code_string(pa.prog) << "\nvs\n"
        << ir::to_code_string(pb.prog);
    EXPECT_EQ(pa.env, pb.env);
  }
}

TEST(FuzzGeneratorTest, DistinctSeedsDiverge) {
  const auto pa = fuzz::ProgramGenerator(7).generate();
  const auto pb = fuzz::ProgramGenerator(8).generate();
  EXPECT_NE(ir::to_code_string(pa.prog), ir::to_code_string(pb.prog));
}

TEST(FuzzGeneratorTest, EnvBindsEveryExtentSymbol) {
  fuzz::ProgramGenerator gen(3);
  const auto gp = gen.generate();
  for (const auto& var : gp.prog.variables()) {
    // Every loop extent is a symbol the environment binds to a small value.
    trace::CompiledProgram cp(gp.prog, gp.env);  // throws if unbound
    (void)var;
    (void)cp;
  }
}

// ---------------------------------------------------------------------------
// Parser↔printer round-trip: the reducer's artifact format depends on
// parse(print(p)) being structurally lossless.
// ---------------------------------------------------------------------------

void expect_roundtrip(const ir::Program& p, const std::string& what) {
  const std::string text = ir::to_code_string(p);
  ir::Program reparsed;
  ASSERT_NO_THROW(reparsed = ir::parse_program(text))
      << what << ":\n" << text;
  EXPECT_TRUE(ir::structurally_equal(p, reparsed))
      << what << " does not round-trip:\n" << text << "\nreparsed:\n"
      << ir::to_code_string(reparsed);
}

TEST(FuzzRoundTripTest, GalleryPrograms) {
  expect_roundtrip(ir::matmul().prog, "matmul");
  expect_roundtrip(ir::matmul_tiled().prog, "matmul_tiled");
  expect_roundtrip(ir::two_index_fused().prog, "two_index_fused");
  expect_roundtrip(ir::two_index_tiled().prog, "two_index_tiled");
  expect_roundtrip(ir::two_index_unfused().prog, "two_index_unfused");
}

TEST(FuzzRoundTripTest, OneHundredGeneratedPrograms) {
  for (std::uint64_t seed = 100; seed < 200; ++seed) {
    fuzz::ProgramGenerator gen(seed);
    const auto gp = gen.generate();
    expect_roundtrip(gp.prog, "seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Set-associative edge geometries, via the differential oracles:
// associativity 1 is direct-mapped (policy cannot matter), associativity ==
// num_lines is fully associative (must equal the LruCache-based simulator).
// ---------------------------------------------------------------------------

TEST(FuzzSetAssocEdgeTest, GalleryMatmul) {
  const auto g = ir::matmul();
  const auto env = g.make_env({6, 6, 6}, {});
  fuzz::OracleOptions opts;
  fuzz::apply_family_filter(opts, "set-assoc");
  const auto report = fuzz::check_program(g.prog, env, opts);
  EXPECT_TRUE(report.ok())
      << fuzz::describe_failure(g.prog, env, report);
}

TEST(FuzzSetAssocEdgeTest, GeneratedPrograms) {
  fuzz::OracleOptions opts;
  fuzz::apply_family_filter(opts, "set-assoc");
  for (std::uint64_t seed = 300; seed < 310; ++seed) {
    fuzz::ProgramGenerator gen(seed);
    const auto gp = gen.generate();
    const auto report = fuzz::check_program(gp.prog, gp.env, opts);
    if (report.skipped) continue;
    EXPECT_TRUE(report.ok()) << fuzz::describe_failure(gp, report);
  }
}

// ---------------------------------------------------------------------------
// Reducer.
// ---------------------------------------------------------------------------

/// A deliberately broken engine: a fully-associative LRU cache that evicts
/// one element too early (capacity - 1). The predicate reports failure when
/// the broken engine disagrees with the exact stack-distance profile —
/// the same shape of bug an off-by-one in sweep.cpp would produce.
bool off_by_one_engine_disagrees(const ir::Program& p, const sym::Env& env) {
  trace::CompiledProgram cp(p, env);
  const auto prof = cachesim::profile_stack_distances(cp);
  for (const std::int64_t cap : {2, 3, 5, 8}) {
    const auto buggy = cachesim::simulate_lru(cp, cap - 1);
    if (buggy.misses != prof.misses(cap)) return true;
  }
  return false;
}

TEST(FuzzReducerTest, ShrinksOffByOneCounterexampleToMinimal) {
  // Find a generated program exposing the injected off-by-one.
  std::optional<fuzz::GeneratedProgram> found;
  for (std::uint64_t seed = 1; seed < 50 && !found; ++seed) {
    fuzz::ProgramGenerator gen(seed);
    auto gp = gen.generate();
    if (off_by_one_engine_disagrees(gp.prog, gp.env)) {
      found = std::move(gp);
    }
  }
  ASSERT_TRUE(found.has_value())
      << "no generated program exposed the off-by-one engine";

  const auto red =
      fuzz::reduce(found->prog, found->env, off_by_one_engine_disagrees);
  // Still failing, and minimal: the off-by-one needs only a single
  // statement that revisits one element at the right stack depth.
  EXPECT_TRUE(off_by_one_engine_disagrees(red.prog, red.env));
  EXPECT_LE(red.prog.statements_in_order().size(), 3u)
      << ir::to_code_string(red.prog);
  EXPECT_GT(red.steps, 0u);
  // The minimized program must replay through the artifact format.
  const auto artifact = fuzz::to_artifact(red.prog, red.env, "test note");
  const auto parsed = fuzz::parse_artifact(artifact);
  EXPECT_TRUE(ir::structurally_equal(red.prog, parsed.prog)) << artifact;
  EXPECT_TRUE(off_by_one_engine_disagrees(parsed.prog, parsed.env));
}

TEST(FuzzReducerTest, RejectsPassingInput) {
  const auto gp = fuzz::ProgramGenerator(5).generate();
  const fuzz::FailurePredicate never =
      [](const ir::Program&, const sym::Env&) { return false; };
  EXPECT_THROW(fuzz::reduce(gp.prog, gp.env, never), ContractViolation);
}

TEST(FuzzArtifactTest, RoundTripsProgramAndEnv) {
  const auto gp = fuzz::ProgramGenerator(11).generate();
  const auto text = fuzz::to_artifact(gp.prog, gp.env, "two\nlines");
  const auto parsed = fuzz::parse_artifact(text);
  EXPECT_TRUE(ir::structurally_equal(gp.prog, parsed.prog)) << text;
  EXPECT_EQ(gp.env, parsed.env);
}

TEST(FuzzArtifactTest, ReplaysThroughBothTracePaths) {
  // A counterexample artifact is only useful if replaying it drives the
  // same engines that indicted it — which since the run-compressed trace
  // landed means BOTH delivery paths. Shrink a real counterexample, push it
  // through the artifact format, and run the replayed program through the
  // run-fed and per-access engines plus the full oracle battery.
  std::optional<fuzz::GeneratedProgram> found;
  for (std::uint64_t seed = 1; seed < 50 && !found; ++seed) {
    auto gp = fuzz::ProgramGenerator(seed).generate();
    if (off_by_one_engine_disagrees(gp.prog, gp.env)) found = std::move(gp);
  }
  ASSERT_TRUE(found.has_value());
  const auto red =
      fuzz::reduce(found->prog, found->env, off_by_one_engine_disagrees);
  const auto parsed =
      fuzz::parse_artifact(fuzz::to_artifact(red.prog, red.env, "replay"));

  trace::CompiledProgram cp(parsed.prog, parsed.env);
  for (const std::int64_t cap : {1, 2, 3, 5, 8, 64}) {
    const std::vector<cachesim::SweepConfig> cfg{{cap, 1}};
    const auto runs = cachesim::simulate_sweep_streamed(cp, cfg);
    const auto per_access = cachesim::simulate_lru(cp, cap);
    EXPECT_EQ(runs[0].misses, per_access.misses) << "cap=" << cap;
    EXPECT_EQ(runs[0].misses_by_site, per_access.misses_by_site)
        << "cap=" << cap;
  }
  // The replayed program also has to come out clean under every oracle —
  // run-fed sweep, run-fed profiler, walker contract, the lot.
  const auto report = fuzz::check_program(parsed.prog, parsed.env);
  ASSERT_FALSE(report.skipped);
  EXPECT_TRUE(report.ok())
      << fuzz::describe_failure(parsed.prog, parsed.env, report);
}

TEST(FuzzArtifactTest, WriteIsAtomicUnderInjectedFault) {
  // A fault injected mid-write must leave the previous artifact intact and
  // no stray temp file behind — never a truncated replay file.
  const auto dir = std::filesystem::temp_directory_path() /
                   "sdlo_artifact_test";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "counterexample.sdlo").string();
  const auto gp = fuzz::ProgramGenerator(11).generate();
  const std::string good = fuzz::to_artifact(gp.prog, gp.env, "original");
  fuzz::write_artifact_file(path, good);
  {
    failpoints::ScopedFailpoint fp(failpoints::kArtifactWrite,
                                   {failpoints::Action::kThrow, 0});
    EXPECT_THROW(fuzz::write_artifact_file(
                     path, fuzz::to_artifact(gp.prog, gp.env, "clobber")),
                 InjectedFault);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), good);  // the original artifact survived untouched
  // And the surviving file still replays.
  const auto parsed = fuzz::parse_artifact(buf.str());
  EXPECT_TRUE(ir::structurally_equal(gp.prog, parsed.prog));
  std::filesystem::remove_all(dir);
}

TEST(FuzzOracleTest, BudgetedDegradationFamilyIsClean) {
  // The budget oracle (a zero budget gives the truncated empty prefix; a
  // stack-tables budget retries a pooled plan as one chunk, bit-identical)
  // must pass on gallery and generated programs.
  const auto g = ir::matmul_tiled();
  fuzz::OracleOptions opts;
  fuzz::apply_family_filter(opts, "budgeted");
  const auto report = fuzz::check_program(
      g.prog, g.make_env({8, 8, 8}, {4, 4, 4}), opts);
  EXPECT_TRUE(report.ok())
      << fuzz::describe_failure(g.prog, g.make_env({8, 8, 8}, {4, 4, 4}),
                                report);
  EXPECT_FALSE(report.truncated);
}

TEST(FuzzOracleTest, GovernorTruncatesBattery) {
  // A tripped governor stops the battery between oracle families: the
  // report comes back truncated, mismatch-free, without running the
  // remaining families.
  const auto g = ir::matmul_tiled();
  const auto env = g.make_env({8, 8, 8}, {4, 4, 4});
  Governor gov;
  gov.cancel.request_cancel();
  fuzz::OracleOptions opts;
  opts.governor = &gov;
  const auto report = fuzz::check_program(g.prog, env, opts);
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.ok());

  // An armed countdown stops it partway instead of immediately.
  Governor later;
  later.cancel.cancel_after(3);
  fuzz::OracleOptions part_opts;
  part_opts.governor = &later;
  const auto partial = fuzz::check_program(g.prog, env, part_opts);
  EXPECT_TRUE(partial.truncated);
  EXPECT_TRUE(partial.ok());
}

TEST(FuzzReportTest, FailureMessageIsReproducibleFromLogsAlone) {
  fuzz::ProgramGenerator gen(77);
  const auto gp = gen.generate();
  fuzz::OracleReport report;
  report.mismatches.push_back(
      fuzz::Mismatch{"model-vs-profile", "cap=8: 1 != 2"});
  const std::string msg = fuzz::describe_failure(gp, report);
  // Seed, stream index, env bindings, and the printed program must all be
  // present so the failure replays from a CI log with no other state.
  EXPECT_NE(msg.find("seed 77"), std::string::npos) << msg;
  EXPECT_NE(msg.find("index 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("v0_N="), std::string::npos) << msg;
  EXPECT_NE(msg.find(ir::to_code_string(gp.prog)), std::string::npos) << msg;
  EXPECT_NE(msg.find("model-vs-profile"), std::string::npos) << msg;
}

}  // namespace
}  // namespace sdlo
