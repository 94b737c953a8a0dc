// Deterministic, fast pseudo-random generator (splitmix64) used by
// property-based tests and randomized trace workloads. std::mt19937 is
// avoided in hot loops; splitmix64 is 1 mul + shifts per draw and its output
// sequence is stable across platforms, which keeps tests reproducible.
#pragma once

#include <cstdint>

namespace sdlo {

/// splitmix64: passes BigCrush on its output, period 2^64.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64 uniform random bits.
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift reduction.
  std::uint64_t below(std::uint64_t bound) {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Current state: SplitMix64(state()) continues this stream exactly.
  std::uint64_t state() const { return state_; }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

}  // namespace sdlo
