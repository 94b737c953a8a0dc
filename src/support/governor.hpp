// Resource-governed execution: deadlines, memory budgets and cooperative
// cancellation for the long-running drivers (sweep engine, symbolic sweep,
// tile search, fuzzing battery, SMP calibration).
//
// All of these drivers used to run open-loop: no time ceiling, no memory
// ceiling, no way to stop one from the outside. The governor closes the
// loop without ever tearing a driver down mid-structure: engines *poll* a
// Governor at safe points (every `poll_interval` run groups, between oracle
// families, between refinement rounds) and, when a budget trips, stop
// consuming input and return the exact result of the prefix they did
// consume, marked Completeness::kTruncated. Truncation degrades a result —
// it never corrupts one: a truncated sweep's miss counts are the bit-exact
// counts of the trace prefix, hence a lower bound on the full-trace counts.
//
// Memory ceilings are never exceeded, and a denial costs completeness, not
// exactness: the dense direct-indexed engines ask the budget for their
// footprint-sized tables up front. A pooled sweep that is denied retries
// as one chunk (the same result); when even that is denied, the sweep
// walks nothing and returns the exact empty prefix, marked truncated,
// instead of allocating past the ceiling or throwing std::bad_alloc from
// deep inside a worker thread.
//
// Everything here is thread-safe: tokens and budgets are shared atomics, a
// Deadline is an immutable time point, and one Governor may be polled
// concurrently from every worker of a parallel::ThreadPool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "support/check.hpp"

namespace sdlo {

/// Whether a result covers its whole input or a budget-truncated prefix.
enum class Completeness : std::uint8_t { kComplete, kTruncated };

/// Name for reports ("complete" / "truncated").
const char* completeness_name(Completeness c);

/// A fixed point on the steady clock. Immutable and freely copyable;
/// default-constructed deadlines never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// A deadline that never expires.
  static Deadline never() { return Deadline(); }

  /// Expires `seconds` from now (<= 0 means already expired). A span past
  /// the clock's range (about 292 years), or infinity, never expires.
  static Deadline after_seconds(double seconds);

  bool unlimited() const { return at_ == Clock::time_point::max(); }
  bool expired() const {
    return !unlimited() && Clock::now() >= at_;
  }

  /// Seconds until expiry; negative once expired, +infinity when unlimited.
  double remaining_seconds() const;

 private:
  Clock::time_point at_ = Clock::time_point::max();
};

/// Cooperative cancellation flag. Copies share one state, so a token handed
/// to a driver can be cancelled from another thread (or from a signal-like
/// control path) and every concurrent poller observes it. cancel_after()
/// arms a deterministic countdown — cancel on the n-th poll() — which is
/// how tests trip a driver at an exact trace prefix without timing races.
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<State>()) {}

  /// Requests cancellation; every copy of this token observes it.
  void request_cancel() const {
    state_->cancelled.store(true, std::memory_order_release);
  }

  /// True once cancellation was requested (no countdown side effects).
  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

  /// Arms the token to cancel itself on the `polls`-th subsequent poll().
  void cancel_after(std::int64_t polls) const {
    SDLO_EXPECTS(polls >= 1);
    state_->countdown.store(polls, std::memory_order_release);
  }

  /// Polling read: decrements an armed countdown (cancelling at zero) and
  /// returns cancelled(). Safe to call concurrently.
  bool poll() const {
    if (state_->countdown.load(std::memory_order_relaxed) > 0 &&
        state_->countdown.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      request_cancel();
    }
    return cancelled();
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<std::int64_t> countdown{0};  // 0 = not armed
  };
  std::shared_ptr<State> state_;
};

/// A byte ceiling shared by every allocation site of one governed run.
/// try_reserve() is an atomic all-or-nothing claim; engines that are denied
/// retry with smaller tables or return a truncated result, and never
/// allocate past the ceiling.
class MemoryBudget {
 public:
  /// `limit_bytes` is the ceiling; 0 denies every reservation.
  explicit MemoryBudget(std::uint64_t limit_bytes) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Claims `bytes` against the ceiling; false when it would exceed it.
  bool try_reserve(std::uint64_t bytes);

  /// Returns a previous successful reservation.
  void release(std::uint64_t bytes);

  std::uint64_t limit() const { return limit_; }
  std::uint64_t used() const {
    return used_.load(std::memory_order_relaxed);
  }

 private:
  const std::uint64_t limit_;
  std::atomic<std::uint64_t> used_{0};
};

/// RAII claim on a MemoryBudget. ok() reports whether the claim succeeded;
/// a claim against a null budget is trivially ok (unlimited memory).
class MemoryReservation {
 public:
  MemoryReservation() = default;

  /// Claims `bytes` from `budget` (nullptr = unlimited, always ok).
  MemoryReservation(MemoryBudget* budget, std::uint64_t bytes);

  /// A denied claim (ok() == false) tied to no budget — how fault
  /// injection simulates an allocation denial.
  static MemoryReservation denied() {
    MemoryReservation r;
    r.ok_ = false;
    return r;
  }

  MemoryReservation(MemoryReservation&& other) noexcept;
  MemoryReservation& operator=(MemoryReservation&& other) noexcept;
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  ~MemoryReservation();

  bool ok() const { return ok_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_ = nullptr;
  std::uint64_t bytes_ = 0;
  bool ok_ = true;
};

/// The bundle a driver is governed by: a deadline, a cancellation token and
/// an optional memory budget. Passed by const pointer everywhere; nullptr
/// means "ungoverned" and preserves the historical open-loop behavior.
struct Governor {
  Deadline deadline = Deadline::never();
  CancellationToken cancel;
  /// Byte ceiling for the dense direct-indexed tables, never exceeded: a
  /// denied sweep truncates; nullptr = unlimited.
  MemoryBudget* memory = nullptr;
  /// Run groups (or equivalent units of work) between should_stop() polls.
  /// One poll is ~two atomic loads plus a clock read, so the default keeps
  /// polling overhead well under 0.1% of the access path.
  std::uint64_t poll_interval = 1024;

  /// True when the driver should stop consuming input and return its
  /// truncated-but-valid partial result. Advances the token countdown.
  bool should_stop() const {
    return cancel.poll() || deadline.expired();
  }

  /// Throwing variant for call sites that cannot produce a partial result:
  /// raises BudgetExceeded naming `what`.
  void check(const char* what) const;
};

/// should_stop() on a nullable governor.
inline bool governor_should_stop(const Governor* g) {
  return g != nullptr && g->should_stop();
}

}  // namespace sdlo
