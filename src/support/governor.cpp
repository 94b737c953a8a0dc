#include "support/governor.hpp"

#include <limits>

namespace sdlo {

const char* completeness_name(Completeness c) {
  return c == Completeness::kComplete ? "complete" : "truncated";
}

Deadline Deadline::after_seconds(double seconds) {
  const Clock::time_point now = Clock::now();
  // A span the clock cannot represent from now on (infinity included)
  // never expires; the conversion below would overflow.
  const Clock::duration room = Clock::time_point::max() - now;
  if (!(seconds < std::chrono::duration<double>(room).count())) {
    return never();
  }
  const auto delta = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  if (delta >= room) return never();  // rounded up to the clock's end
  Deadline d;
  d.at_ = now + delta;
  return d;
}

double Deadline::remaining_seconds() const {
  if (unlimited()) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(at_ - Clock::now()).count();
}

bool MemoryBudget::try_reserve(std::uint64_t bytes) {
  std::uint64_t cur = used_.load(std::memory_order_relaxed);
  for (;;) {
    if (bytes > limit_ || cur > limit_ - bytes) return false;
    if (used_.compare_exchange_weak(cur, cur + bytes,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      return true;
    }
  }
}

void MemoryBudget::release(std::uint64_t bytes) {
  SDLO_EXPECTS(used_.load(std::memory_order_relaxed) >= bytes);
  used_.fetch_sub(bytes, std::memory_order_acq_rel);
}

MemoryReservation::MemoryReservation(MemoryBudget* budget,
                                     std::uint64_t bytes)
    : budget_(budget), bytes_(bytes) {
  if (budget_ != nullptr) ok_ = budget_->try_reserve(bytes_);
}

MemoryReservation::MemoryReservation(MemoryReservation&& other) noexcept
    : budget_(other.budget_), bytes_(other.bytes_), ok_(other.ok_) {
  other.budget_ = nullptr;
  other.ok_ = true;
}

MemoryReservation& MemoryReservation::operator=(
    MemoryReservation&& other) noexcept {
  if (this != &other) {
    if (budget_ != nullptr && ok_) budget_->release(bytes_);
    budget_ = other.budget_;
    bytes_ = other.bytes_;
    ok_ = other.ok_;
    other.budget_ = nullptr;
    other.ok_ = true;
  }
  return *this;
}

MemoryReservation::~MemoryReservation() {
  if (budget_ != nullptr && ok_) budget_->release(bytes_);
}

void Governor::check(const char* what) const {
  if (cancel.poll()) {
    throw BudgetExceeded(BudgetExceeded::Kind::kCancelled,
                         std::string(what) + ": cancelled");
  }
  if (deadline.expired()) {
    throw BudgetExceeded(BudgetExceeded::Kind::kDeadline,
                         std::string(what) + ": deadline exceeded");
  }
}

}  // namespace sdlo
