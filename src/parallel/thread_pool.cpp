#include "parallel/thread_pool.hpp"

#include <utility>

#include "support/check.hpp"
#include "support/failpoints.hpp"

namespace sdlo::parallel {

ThreadPool::ThreadPool(int threads) {
  SDLO_EXPECTS(threads >= 1);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this](std::stop_token st) { worker_loop(st); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle_nothrow();
  for (auto& w : workers_) w.request_stop();
  cv_.notify_all();
  // jthread joins on destruction.
}

void ThreadPool::submit(std::function<void()> task) {
  failpoints::hit(failpoints::kPoolSubmit);
  {
    std::scoped_lock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr err;
  {
    std::unique_lock lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::wait_idle_nothrow() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  first_error_ = nullptr;
}

void ThreadPool::run_task(std::function<void()>& task) {
  try {
    failpoints::hit(failpoints::kPoolTask);
    task();
  } catch (...) {
    std::scoped_lock lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(std::stop_token st) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, st, [this] { return !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task(task);
    {
      std::scoped_lock lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for_blocked(ThreadPool& pool, std::int64_t begin,
                          std::int64_t end,
                          const std::function<void(std::int64_t,
                                                   std::int64_t)>& body) {
  SDLO_EXPECTS(begin <= end);
  const std::int64_t n = end - begin;
  if (n == 0) return;
  const auto threads = static_cast<std::int64_t>(pool.num_threads());
  const std::int64_t chunks = std::min(n, threads);
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t lo = begin + n * c / chunks;
    const std::int64_t hi = begin + n * (c + 1) / chunks;
    pool.submit([lo, hi, &body] { body(lo, hi); });
  }
  pool.wait_idle();
}

}  // namespace sdlo::parallel
