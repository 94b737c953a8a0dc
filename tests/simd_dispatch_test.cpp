// Runtime-dispatch tests for the SIMD shim: every tier the running CPU
// supports must compute bit-identically to the scalar bodies on each
// primitive (including unaligned lengths and tails), and the sweep engine
// must produce identical results at every forced tier — the in-process
// counterpart of the CI dispatch matrix that forces SDLO_SIMD through the
// whole test suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/parallel_stack.hpp"
#include "cachesim/sweep.hpp"
#include "ir/gallery.hpp"
#include "support/simd.hpp"
#include "trace/walker.hpp"

namespace {

using namespace sdlo;
using simd::Isa;

/// Tiers to try: everything at or below what the CPU supports (set_isa
/// clamps, so asking for more is safe but would silently retest the same
/// tier).
std::vector<Isa> usable_tiers() {
  std::vector<Isa> tiers{Isa::kScalar};
  for (Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kAvx512}) {
    if (simd::set_isa(isa) == isa) tiers.push_back(isa);
  }
  return tiers;
}

/// Restores the detected tier after each test.
struct IsaRestorer {
  ~IsaRestorer() { simd::set_isa(simd::detected_isa()); }
};

std::vector<std::uint64_t> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  std::uint64_t x = seed;
  for (auto& e : v) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    e = x;
  }
  return v;
}

TEST(SimdDispatch, PrimitivesMatchScalarOnEveryTier) {
  IsaRestorer restore;
  // Lengths straddle every vector width (8/4/2 lanes) plus scalar tails.
  const std::vector<std::size_t> lengths{0, 1, 2, 3, 7, 8, 9,
                                         15, 16, 17, 63, 64, 65, 1000};
  for (const std::size_t n : lengths) {
    const auto src = pattern(n, 0x5eed + n);
    const auto base_dst = pattern(n, 0xd157 + n);
    auto idx = pattern(n, 0x1dc5 + n);
    const auto table = pattern(1024, 0x7ab1e);
    for (auto& i : idx) i %= table.size();

    // Scalar reference for each primitive.
    simd::set_isa(Isa::kScalar);
    auto add_ref = base_dst;
    simd::add_u64(add_ref.data(), src.data(), n);
    std::vector<std::uint64_t> lines_ref(n);
    simd::run_lines(0x12345678u, 3, 2, lines_ref.data(), n);
    std::vector<std::uint64_t> gather_ref(n);
    simd::gather_u64(table.data(), idx.data(), gather_ref.data(), n);
    auto scan_src = src;
    if (n > 4) scan_src[n / 2] = 0;  // plant a mismatch mid-array
    const std::size_t scan_ref =
        simd::find_not_equal(scan_src.data(), n, 0, 0);

    for (const Isa isa : usable_tiers()) {
      ASSERT_EQ(simd::set_isa(isa), isa);
      const std::string tier = simd::isa_name(isa);
      auto add_got = base_dst;
      simd::add_u64(add_got.data(), src.data(), n);
      EXPECT_EQ(add_got, add_ref) << tier << " add_u64 n=" << n;

      std::vector<std::uint64_t> lines_got(n);
      simd::run_lines(0x12345678u, 3, 2, lines_got.data(), n);
      EXPECT_EQ(lines_got, lines_ref) << tier << " run_lines n=" << n;
      std::vector<std::uint64_t> neg_got(n);
      simd::run_lines(~0ull - 7, -3, 4, neg_got.data(), n);
      simd::set_isa(Isa::kScalar);
      std::vector<std::uint64_t> neg_ref(n);
      simd::run_lines(~0ull - 7, -3, 4, neg_ref.data(), n);
      simd::set_isa(isa);
      EXPECT_EQ(neg_got, neg_ref)
          << tier << " run_lines wraparound n=" << n;

      std::vector<std::uint64_t> gather_got(n);
      simd::gather_u64(table.data(), idx.data(), gather_got.data(), n);
      EXPECT_EQ(gather_got, gather_ref) << tier << " gather_u64 n=" << n;

      EXPECT_EQ(simd::find_not_equal(scan_src.data(), n, 0, 0), scan_ref)
          << tier << " find_not_equal n=" << n;
      // All-equal scan returns n from any starting offset.
      const std::vector<std::uint64_t> flat(n, 42);
      EXPECT_EQ(simd::find_not_equal(flat.data(), n, 0, 42), n)
          << tier << " all-equal n=" << n;
      if (n > 2) {
        EXPECT_EQ(simd::find_not_equal(flat.data(), n, n - 2, 42), n)
            << tier << " offset scan n=" << n;
      }
    }
  }
}

TEST(SimdDispatch, SweepEnginesIdenticalAtEveryTier) {
  IsaRestorer restore;
  const auto g = ir::matmul_tiled();
  const trace::CompiledProgram cp(g.prog,
                                  g.make_env({16, 16, 16}, {4, 8, 4}));
  std::vector<cachesim::SweepConfig> configs;
  for (std::int64_t cap : {2, 16, 250, 1024}) {
    configs.push_back({cap, 1, 0, cachesim::Replacement::kLru});
  }
  configs.push_back({128, 4, 0, cachesim::Replacement::kLru});

  simd::set_isa(Isa::kScalar);
  const auto want = cachesim::simulate_sweep_streamed(cp, configs);
  cachesim::StreamOptions popt;
  popt.partition.chunks = 5;
  const auto want_part =
      cachesim::simulate_sweep_streamed(cp, configs, nullptr, popt);

  for (const Isa isa : usable_tiers()) {
    ASSERT_EQ(simd::set_isa(isa), isa);
    const std::string tier = simd::isa_name(isa);
    const auto got = cachesim::simulate_sweep_streamed(cp, configs);
    const auto got_part =
        cachesim::simulate_sweep_streamed(cp, configs, nullptr, popt);
    ASSERT_EQ(got.size(), want.size()) << tier;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].misses, want[i].misses) << tier << " cfg=" << i;
      EXPECT_EQ(got[i].misses_by_site, want[i].misses_by_site)
          << tier << " cfg=" << i;
      EXPECT_EQ(got_part[i].misses, want_part[i].misses)
          << tier << " cfg=" << i;
      EXPECT_EQ(got_part[i].misses_by_site, want_part[i].misses_by_site)
          << tier << " cfg=" << i;
    }
  }
}

}  // namespace
