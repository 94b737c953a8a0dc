#include "cachesim/sweep.hpp"

#include <bit>

#include "support/check.hpp"

namespace sdlo::cachesim {

void check_sweep_config(const SweepConfig& c) {
  SDLO_CHECK(c.capacity_elems > 0, "sweep capacity must be positive");
  SDLO_CHECK(c.line_elems > 0 &&
                 std::has_single_bit(
                     static_cast<std::uint64_t>(c.line_elems)),
             "sweep line size must be a positive power of two");
  SDLO_CHECK(c.capacity_elems % c.line_elems == 0,
             "sweep capacity must be a whole number of lines");
  SDLO_CHECK(c.ways == 0,
             "the sweep engine is fully associative; simulate a "
             "set-associative geometry with simulate_set_assoc");
}

}  // namespace sdlo::cachesim
