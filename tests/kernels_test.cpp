// Correctness tests for the runnable kernels: every variant must compute
// the same values as the straightforward reference.
#include "support/check.hpp"
#include <gtest/gtest.h>

#include "kernels/matrix.hpp"
#include "kernels/two_index.hpp"

namespace sdlo::kernels {
namespace {

TEST(Matrix, Indexing) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 2) = 7;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[5], 7);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
}

TEST(Matrix, PatternIsDeterministic) {
  Matrix a(4, 4);
  Matrix b(4, 4);
  a.fill_pattern(42);
  b.fill_pattern(42);
  EXPECT_EQ(Matrix::max_abs_diff(a, b), 0.0);
  b.fill_pattern(43);
  EXPECT_GT(Matrix::max_abs_diff(a, b), 0.0);
}

class TwoIndexFixture : public ::testing::Test {
 protected:
  TwoIndexFixture()
      : a_(kI, kJ), c1_(kM, kI), c2_(kN, kJ) {
    a_.fill_pattern(11);
    c1_.fill_pattern(12);
    c2_.fill_pattern(13);
  }
  Matrix reference() {
    Matrix b(kM, kN);
    two_index_unfused(a_, c1_, c2_, b);
    return b;
  }
  static constexpr std::int64_t kI = 12, kJ = 8, kM = 16, kN = 20;
  Matrix a_, c1_, c2_;
};

TEST_F(TwoIndexFixture, FusedMatchesUnfused) {
  Matrix b_ref = reference();
  Matrix b(kM, kN);
  two_index_fused(a_, c1_, c2_, b);
  EXPECT_LT(Matrix::max_abs_diff(b_ref, b), 1e-11);
}

TEST_F(TwoIndexFixture, TiledMatchesReference) {
  Matrix b_ref = reference();
  for (const TwoIndexTiles tiles :
       {TwoIndexTiles{1, 1, 1, 1}, TwoIndexTiles{12, 8, 16, 20},
        TwoIndexTiles{4, 2, 8, 5}, TwoIndexTiles{6, 4, 4, 10}}) {
    Matrix b(kM, kN);
    two_index_tiled(a_, c1_, c2_, b, tiles);
    EXPECT_LT(Matrix::max_abs_diff(b_ref, b), 1e-11)
        << tiles.ti << "," << tiles.tj << "," << tiles.tm << ","
        << tiles.tn;
  }
}

TEST_F(TwoIndexFixture, CopyTilesMatches) {
  Matrix b_ref = reference();
  Matrix b(kM, kN);
  two_index_tiled(a_, c1_, c2_, b, TwoIndexTiles{4, 4, 8, 4}, nullptr,
                  /*copy_tiles=*/true);
  EXPECT_LT(Matrix::max_abs_diff(b_ref, b), 1e-11);
}

TEST_F(TwoIndexFixture, ParallelMatches) {
  Matrix b_ref = reference();
  parallel::ThreadPool pool(4);
  for (bool copy : {false, true}) {
    Matrix b(kM, kN);
    two_index_tiled(a_, c1_, c2_, b, TwoIndexTiles{4, 2, 8, 5}, &pool,
                    copy);
    EXPECT_LT(Matrix::max_abs_diff(b_ref, b), 1e-11) << copy;
  }
}

TEST_F(TwoIndexFixture, RejectsIndivisibleTiles) {
  Matrix b(kM, kN);
  EXPECT_THROW(two_index_tiled(a_, c1_, c2_, b, TwoIndexTiles{5, 2, 8, 5}),
               Error);
}

TEST(TwoIndexFlops, Formula) {
  EXPECT_DOUBLE_EQ(two_index_flops(2, 3, 4, 5), 2.0 * 2 * 5 * (3 + 4));
}

}  // namespace
}  // namespace sdlo::kernels
