// Tests for the thread pool, blocked parallel-for and the §7 SMP model.
#include "support/check.hpp"
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "ir/gallery.hpp"
#include "support/failpoints.hpp"
#include "model/analyzer.hpp"
#include "parallel/smp_model.hpp"
#include "parallel/thread_pool.hpp"

namespace sdlo::parallel {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ConcurrentSubmittersAndWaiters) {
  // Stress the queue under contention: several outside threads submit
  // batches while others call wait_idle() concurrently. Every submitted
  // task must run exactly once and every wait_idle() must return.
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kBatches = 50;
  constexpr int kTasksPerBatch = 20;
  std::atomic<int> count{0};
  std::vector<std::jthread> outside;
  for (int s = 0; s < kSubmitters; ++s) {
    outside.emplace_back([&pool, &count] {
      for (int b = 0; b < kBatches; ++b) {
        for (int t = 0; t < kTasksPerBatch; ++t) {
          pool.submit([&count] { count.fetch_add(1); });
        }
        pool.wait_idle();  // interleaves with other submitters' batches
      }
    });
  }
  outside.clear();  // joins all submitters
  pool.wait_idle();
  EXPECT_EQ(count.load(), kSubmitters * kBatches * kTasksPerBatch);
}

TEST(ThreadPool, ThrowingTaskSurfacesFromWaitIdle) {
  // Regression: a throwing task used to escape the worker's call frame and
  // std::terminate the process. It must instead surface from wait_idle().
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw Error("task failed"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait_idle(), Error);
  EXPECT_EQ(ran.load(), 10);  // the rest of the batch still ran

  // First-error-wins and the pool stays fully reusable afterwards.
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();  // no stale exception resurfaces
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, FirstOfSeveralErrorsWins) {
  ThreadPool pool(1);  // single worker: deterministic FIFO order
  pool.submit([] { throw Error("first"); });
  pool.submit([] { throw Error("second"); });
  try {
    pool.wait_idle();
    FAIL();
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, TaskFailpointInjectsTypedError) {
  failpoints::ScopedFailpoint fp(failpoints::kPoolTask,
                                 {failpoints::Action::kThrow, 0});
  ThreadPool pool(2);
  pool.submit([] {});
  EXPECT_THROW(pool.wait_idle(), InjectedFault);
  // The injected fault is cleared like any task error; the pool survives.
}

TEST(ThreadPool, SubmitFailpointThrowsAtCallSite) {
  ThreadPool pool(2);
  {
    failpoints::ScopedFailpoint fp(failpoints::kPoolSubmit,
                                   {failpoints::Action::kThrow, 0});
    EXPECT_THROW(pool.submit([] {}), InjectedFault);
  }
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);
  parallel_for_blocked(pool, 1, 101, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  EXPECT_EQ(hits[0].load(), 0);
  for (std::size_t i = 1; i <= 100; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, EmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for_blocked(pool, 5, 5, [&](std::int64_t, std::int64_t) {
    ran = true;
  });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  parallel_for_blocked(pool, 0, 3, [&](std::int64_t lo, std::int64_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(Calibration, SolvesTwoByTwo) {
  // seconds = flops * a + misses * b with a = 1e-9, b = 5e-8.
  const double a = 1e-9;
  const double b = 5e-8;
  const auto cal = CostCalibration::from_runs(
      1e9, 1e6, 1e9 * a + 1e6 * b, 2e9, 5e5, 2e9 * a + 5e5 * b);
  EXPECT_NEAR(cal.sec_per_flop, a, a * 1e-9);
  EXPECT_NEAR(cal.sec_per_miss, b, b * 1e-9);
}

TEST(Calibration, RejectsSingularSystem) {
  EXPECT_THROW(
      CostCalibration::from_runs(1e9, 1e6, 1.0, 2e9, 2e6, 2.0), Error);
}

TEST(Flops, TwoIndexCount) {
  auto g = ir::two_index_tiled();
  const auto env = g.make_env({8, 8, 8, 8}, {4, 4, 4, 4});
  // 2*I*N*(J+M) = 2*8*8*16 = 2048.
  EXPECT_DOUBLE_EQ(count_flops(g.prog, env), 2048.0);
}

class SmpModelTest : public ::testing::Test {
 protected:
  SmpModelTest()
      : g_(ir::two_index_tiled()), an_(model::analyze(g_.prog)) {}
  ir::GalleryProgram g_;
  model::Analysis an_;
  CostCalibration cal_;
};

TEST_F(SmpModelTest, MoreProcessorsNeverSlower) {
  const std::vector<std::int64_t> bounds{64, 64, 64, 64};
  const std::vector<std::int64_t> tiles{8, 8, 8, 8};
  double prev_inf = 1e300;
  for (int p : {1, 2, 4, 8}) {
    const auto est = estimate_smp(an_, g_, "NN", bounds, tiles, p, 512,
                                  cal_);
    EXPECT_EQ(est.processors, p);
    EXPECT_LE(est.seconds_infinite, prev_inf * 1.0001);
    prev_inf = est.seconds_infinite;
    // The bus-limited model is never faster than the infinite-bw model.
    EXPECT_GE(est.seconds_bus, est.seconds_infinite - 1e-12);
  }
}

TEST_F(SmpModelTest, SingleProcessorModelsMatch) {
  const auto est = estimate_smp(an_, g_, "NN", {32, 32, 32, 32},
                                {8, 8, 8, 8}, 1, 256, cal_);
  EXPECT_DOUBLE_EQ(est.seconds_bus, est.seconds_infinite);
  EXPECT_EQ(est.total_misses, est.per_proc_misses);
}

TEST_F(SmpModelTest, TileClampingOnSmallSlices) {
  // P=8 slices of NN=64 leave 8 columns; a Tn=32 tile must clamp to 8.
  const auto est = estimate_smp(an_, g_, "NN", {64, 64, 64, 64},
                                {8, 8, 8, 32}, 8, 512, cal_);
  EXPECT_EQ(est.tiles[3], 8);
  EXPECT_EQ(est.tiles[0], 8);  // untouched dimensions stay
}

TEST_F(SmpModelTest, RejectsIndivisiblePartition) {
  EXPECT_THROW(estimate_smp(an_, g_, "NN", {12, 12, 12, 12}, {4, 4, 4, 4},
                            8, 128, cal_),
               Error);
  EXPECT_THROW(estimate_smp(an_, g_, "XX", {16, 16, 16, 16}, {4, 4, 4, 4},
                            2, 128, cal_),
               Error);
}

TEST_F(SmpModelTest, PerProcMissesShrinkWithP) {
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (int p : {1, 2, 4}) {
    const auto est = estimate_smp(an_, g_, "NN", {64, 64, 64, 64},
                                  {8, 8, 8, 8}, p, 256, cal_);
    EXPECT_LT(est.per_proc_misses, prev);
    prev = est.per_proc_misses;
  }
}

}  // namespace
}  // namespace sdlo::parallel
