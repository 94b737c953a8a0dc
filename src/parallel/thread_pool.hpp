// Minimal task-based thread pool (CP.4: think tasks, not threads).
//
// Used by the kernels for real shared-memory execution of the partitioned
// outer loops (§7), and by the SMP calibration runs. Workers are jthreads
// joined on destruction (CP.23/CP.25); tasks are plain function objects.
//
// Exception safety: a task that throws never takes the process down. The
// worker captures the first in-flight exception and wait_idle() rethrows it
// once the pool is quiescent; later exceptions from the same batch are
// dropped (first-error-wins, matching the per-chunk convention in the sweep
// engine). After the rethrow the pool is idle and fully reusable.
// Cancellation is the tasks' own business: a governed task polls its
// Governor, and the pool runs every task it queued.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sdlo::parallel {

/// Fixed-size pool executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(int threads);

  /// Joins all workers after draining the queue. Never throws: a pending
  /// captured task exception is discarded (call wait_idle() first if the
  /// batch outcome matters).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task of the batch raised (clearing it, so the
  /// pool remains usable for the next batch).
  void wait_idle();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Snapshot: true when no task is queued or running. Used by drivers that
  /// overlap work with the pool (the rolling merge frontier) to detect that
  /// a task they are waiting on was dropped by an injected submit/task
  /// fault, instead of blocking forever on a completion that will never be
  /// signalled.
  bool idle() const;

 private:
  void worker_loop(std::stop_token st);
  void run_task(std::function<void()>& task);
  void wait_idle_nothrow();

  mutable std::mutex mu_;
  std::condition_variable_any cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::int64_t in_flight_ = 0;  // queued + running
  std::exception_ptr first_error_;
  std::vector<std::jthread> workers_;
};

/// Runs fn(i) for i in [begin, end) across `pool`, splitting the range into
/// one contiguous block per thread (the paper's block partitioning of the
/// outer parallel loop, Fig. 8/9). Blocks until completion.
void parallel_for_blocked(ThreadPool& pool, std::int64_t begin,
                          std::int64_t end,
                          const std::function<void(std::int64_t,
                                                   std::int64_t)>& body);

}  // namespace sdlo::parallel
