#include "cachesim/sweep.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "cachesim/marker_stack.hpp"
#include "support/check.hpp"
#include "support/failpoints.hpp"

namespace sdlo::cachesim {

namespace {

using trace::Access;
using trace::Run;

/// Internal control-flow exception: thrown by a governed walk sink at a
/// run-group boundary to stop the walk, caught by feed_units. Never
/// escapes this translation unit.
struct AbortWalk {};

/// Estimated bytes per footprint line of CacheUnit's dense LruCache table
/// (node_of_, int32), used to size MemoryBudget reservations. The marker
/// stack's counterpart is kStackBytesPerLine (marker_stack.hpp).
constexpr std::uint64_t kLruBytesPerLine = 4;

/// One independently simulatable consumer of the trace. Units accept both
/// delivery shapes; for a given walk exactly one of them is used.
class SweepUnit {
 public:
  virtual ~SweepUnit() = default;
  virtual void consume(const Access* a, std::size_t n) = 0;
  virtual void consume_runs(const Run* g, std::size_t nrefs) = 0;
  /// Writes this unit's SimResults into their `configs`-order slots.
  virtual void finish(std::vector<SimResult>& out) const = 0;

  /// Marks every result of this unit as a budget-truncated prefix.
  void set_truncated() { completeness_ = Completeness::kTruncated; }

  /// Ties a successful dense-table reservation to this unit's lifetime.
  void hold(MemoryReservation r) { reservation_ = std::move(r); }

 protected:
  Completeness completeness_ = Completeness::kComplete;

 private:
  MemoryReservation reservation_;
};

}  // namespace

void check_sweep_config(const SweepConfig& c) {
  SDLO_CHECK(c.capacity_elems > 0, "sweep capacity must be positive");
  SDLO_CHECK(c.line_elems > 0 &&
                 std::has_single_bit(
                     static_cast<std::uint64_t>(c.line_elems)),
             "sweep line size must be a positive power of two");
  SDLO_CHECK(c.capacity_elems % c.line_elems == 0,
             "sweep capacity must be a whole number of lines");
}

namespace {

/// The single-pass fully-associative unit: a MarkerStackEngine
/// (marker_stack.hpp) plus the result slots it answers.
class MultiLruStackUnit final : public SweepUnit {
 public:
  /// `slots` pairs each distinct capacity (ascending, in lines) with the
  /// `configs` indices it answers. `footprint_lines` is the exact dense
  /// address-table size (CompiledProgram::footprint_lines).
  MultiLruStackUnit(std::vector<std::int64_t> caps_lines,
                    std::vector<std::vector<std::size_t>> slots,
                    std::int64_t line_elems, std::int32_t num_sites,
                    std::uint64_t footprint_lines)
      : engine_(std::move(caps_lines), line_elems, num_sites,
                footprint_lines),
        slots_(std::move(slots)) {}

  void consume(const Access* a, std::size_t n) override {
    engine_.consume(a, n);
  }

  void consume_runs(const Run* g, std::size_t nrefs) override {
    engine_.consume_runs(g, nrefs);
  }

  void finish(std::vector<SimResult>& out) const override {
    fold_segments(engine_.buckets(), engine_.cold_by_site(),
                  engine_.accesses(), completeness_, slots_, out);
  }

 private:
  MarkerStackEngine engine_;
  std::vector<std::vector<std::size_t>> slots_;  // result slots per capacity
};

/// Shared-walk fallback unit: one real cache instance per configuration,
/// consuming whole batches / run groups at a time. The LRU table is
/// direct-indexed over the program footprint (no hashing, no growth).
class CacheUnit final : public SweepUnit {
 public:
  CacheUnit(const SweepConfig& cfg, std::size_t slot, std::int32_t num_sites,
            std::uint64_t footprint_lines)
      : slot_(slot),
        misses_by_site_(static_cast<std::size_t>(num_sites), 0) {
    check_sweep_config(cfg);
    if (cfg.ways == 0) {
      shift_ = std::countr_zero(static_cast<std::uint64_t>(cfg.line_elems));
      lru_ = std::make_unique<LruCache>(cfg.capacity_elems / cfg.line_elems,
                                        footprint_lines);
    } else {
      set_assoc_ = std::make_unique<SetAssocCache>(
          cfg.capacity_elems, cfg.ways, cfg.line_elems, cfg.policy);
    }
  }

  void consume(const Access* a, std::size_t n) override {
    if (lru_) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!lru_->access(a[i].addr >> shift_)) {
          ++misses_;
          ++misses_by_site_[static_cast<std::size_t>(a[i].site)];
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (!set_assoc_->access(a[i].addr)) {
          ++misses_;
          ++misses_by_site_[static_cast<std::size_t>(a[i].site)];
        }
      }
    }
    accesses_ += n;
  }

  void consume_runs(const Run* g, std::size_t nrefs) override {
    const std::uint64_t count = g[0].count;
    accesses_ += count * nrefs;
    if (lru_) {
      for (std::uint64_t v = 0; v < count; ++v) {
        for (std::size_t r = 0; r < nrefs; ++r) {
          if (!lru_->access(g[r].at(v) >> shift_)) {
            ++misses_;
            ++misses_by_site_[static_cast<std::size_t>(g[r].site)];
          }
        }
      }
    } else {
      for (std::uint64_t v = 0; v < count; ++v) {
        for (std::size_t r = 0; r < nrefs; ++r) {
          if (!set_assoc_->access(g[r].at(v))) {
            ++misses_;
            ++misses_by_site_[static_cast<std::size_t>(g[r].site)];
          }
        }
      }
    }
  }

  void finish(std::vector<SimResult>& out) const override {
    SimResult& res = out[slot_];
    res.accesses = accesses_;
    res.completeness = completeness_;
    res.misses = misses_;
    res.misses_by_site = misses_by_site_;
  }

 private:
  std::size_t slot_;
  int shift_ = 0;
  std::unique_ptr<LruCache> lru_;
  std::unique_ptr<SetAssocCache> set_assoc_;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<std::uint64_t> misses_by_site_;
};

/// One walk of the trace through `mine`, in the requested delivery shape.
/// `Source` is any trace with the CompiledProgram walk shapes: a
/// CompiledProgram, a SpooledTrace or a RunTrace. With a governor, polls it
/// every `poll_interval` run groups (batches in kBatched mode) and stops
/// the walk — at a group boundary, so every unit holds an exact prefix
/// simulation — when a budget trips. Units are then marked truncated.
/// Returns false on truncation.
template <typename Source>
bool feed_units(const Source& prog, const std::vector<SweepUnit*>& mine,
                trace::TraceMode mode, const Governor* gov) {
  const std::uint64_t interval =
      gov != nullptr && gov->poll_interval > 0 ? gov->poll_interval : 1024;
  std::uint64_t tick = 0;
  bool complete = true;
  try {
    if (mode == trace::TraceMode::kRuns) {
      prog.walk_runs([&](const Run* g, std::size_t nrefs) {
        if (gov != nullptr && ++tick >= interval) {
          tick = 0;
          if (gov->should_stop()) throw AbortWalk{};
        }
        for (auto* u : mine) u->consume_runs(g, nrefs);
      });
    } else {
      prog.walk_batched([&](const Access* a, std::size_t n) {
        if (gov != nullptr && ++tick >= interval) {
          tick = 0;
          if (gov->should_stop()) throw AbortWalk{};
        }
        for (auto* u : mine) u->consume(a, n);
      });
    }
  } catch (const AbortWalk&) {
    complete = false;
    for (auto* u : mine) u->set_truncated();
  }
  return complete;
}

/// Walks the trace through `units`: one shared walk when serial, one walk
/// per round-robin chunk of units when a pool is available.
template <typename Source>
void run_units(const Source& prog,
               std::vector<std::unique_ptr<SweepUnit>>& units,
               parallel::ThreadPool* pool, trace::TraceMode mode,
               const Governor* gov) {
  if (units.empty()) return;
  const int threads = pool ? pool->num_threads() : 1;
  if (threads <= 1 || units.size() == 1) {
    std::vector<SweepUnit*> all;
    all.reserve(units.size());
    for (auto& u : units) all.push_back(u.get());
    feed_units(prog, all, mode, gov);
    return;
  }
  const std::size_t chunks =
      std::min<std::size_t>(units.size(), static_cast<std::size_t>(threads));
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (std::size_t c = 0; c < chunks; ++c) {
    pool->submit([&, c] {
      try {
        std::vector<SweepUnit*> mine;
        for (std::size_t u = c; u < units.size(); u += chunks) {
          mine.push_back(units[u].get());
        }
        feed_units(prog, mine, mode, gov);
      } catch (...) {
        std::scoped_lock lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool->wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

/// Claims the dense address table for one unit against the governor's
/// memory budget. Returns a reservation whose ok() is false when the
/// budget denies it — or when the named failpoint injects a denial.
MemoryReservation reserve_dense(const Governor* gov, std::uint64_t bytes,
                                const char* failpoint_site) {
  if (failpoints::fail_alloc(failpoint_site)) {
    return MemoryReservation::denied();
  }
  return MemoryReservation(gov != nullptr ? gov->memory : nullptr, bytes);
}

template <typename Source>
std::vector<SimResult> simulate_sweep_impl(
    const Source& prog, const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool, trace::TraceMode mode, const Governor* gov) {
  std::vector<SimResult> out(configs.size());
  if (configs.empty()) return out;

  std::vector<std::unique_ptr<SweepUnit>> units;
  // Group fully-associative configurations by line size: one marker stack
  // answers every capacity of a group in a single pass.
  std::vector<std::int64_t> lines_seen;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SweepConfig& c = configs[i];
    if (c.ways != 0) {
      units.push_back(std::make_unique<CacheUnit>(
          c, i, prog.num_sites(), prog.footprint_lines(c.line_elems)));
      continue;
    }
    check_sweep_config(c);
    if (std::find(lines_seen.begin(), lines_seen.end(), c.line_elems) ==
        lines_seen.end()) {
      lines_seen.push_back(c.line_elems);
    }
  }
  for (std::int64_t line : lines_seen) {
    // Distinct capacities (in lines) ascending, each with its result slots.
    std::vector<std::pair<std::int64_t, std::size_t>> caps;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (configs[i].ways == 0 && configs[i].line_elems == line) {
        caps.emplace_back(configs[i].capacity_elems / line, i);
      }
    }
    const std::uint64_t fp = prog.footprint_lines(line);
    MemoryReservation r =
        reserve_dense(gov, fp * kStackBytesPerLine,
                      failpoints::kSweepDenseAlloc);
    if (!r.ok()) {
      // Budget denied the dense marker stack: degrade to one hashed-table
      // CacheUnit per configuration (addr_limit 0 selects the
      // open-addressing map). Bit-identical results, O(#configs) per
      // access instead of O(1), and memory proportional to the capacities
      // rather than the footprint.
      for (const auto& [cap, slot] : caps) {
        (void)cap;
        units.push_back(std::make_unique<CacheUnit>(
            configs[slot], slot, prog.num_sites(), /*footprint_lines=*/0));
      }
      continue;
    }
    std::sort(caps.begin(), caps.end());
    std::vector<std::int64_t> distinct;
    std::vector<std::vector<std::size_t>> slots;
    for (const auto& [cap, slot] : caps) {
      if (distinct.empty() || distinct.back() != cap) {
        distinct.push_back(cap);
        slots.emplace_back();
      }
      slots.back().push_back(slot);
    }
    auto unit = std::make_unique<MultiLruStackUnit>(
        std::move(distinct), std::move(slots), line, prog.num_sites(), fp);
    unit->hold(std::move(r));
    units.push_back(std::move(unit));
  }

  run_units(prog, units, pool, mode, gov);
  for (const auto& u : units) u->finish(out);
  return out;
}

template <typename Source>
std::vector<SimResult> simulate_many_impl(
    const Source& prog, const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool, trace::TraceMode mode, const Governor* gov) {
  std::vector<SimResult> out(configs.size());
  if (configs.empty()) return out;
  std::vector<std::unique_ptr<SweepUnit>> units;
  units.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    check_sweep_config(configs[i]);
    std::uint64_t fp = prog.footprint_lines(configs[i].line_elems);
    MemoryReservation r;
    if (configs[i].ways == 0) {
      // Only the fully-associative path allocates a footprint-sized dense
      // table; gate it and fall back to the hashed map when denied.
      r = reserve_dense(gov, fp * kLruBytesPerLine,
                        failpoints::kSweepDenseAlloc);
      if (!r.ok()) fp = 0;
    }
    auto unit = std::make_unique<CacheUnit>(configs[i], i, prog.num_sites(),
                                            fp);
    unit->hold(std::move(r));
    units.push_back(std::move(unit));
  }
  run_units(prog, units, pool, mode, gov);
  for (const auto& u : units) u->finish(out);
  return out;
}

}  // namespace

std::vector<SimResult> simulate_sweep(const trace::CompiledProgram& prog,
                                      const std::vector<SweepConfig>& configs,
                                      parallel::ThreadPool* pool,
                                      trace::TraceMode mode,
                                      const Governor* gov) {
  return simulate_sweep_impl(prog, configs, pool, mode, gov);
}

std::vector<SimResult> simulate_sweep(const trace::SpooledTrace& spool,
                                      const std::vector<SweepConfig>& configs,
                                      parallel::ThreadPool* pool,
                                      trace::TraceMode mode,
                                      const Governor* gov) {
  return simulate_sweep_impl(spool, configs, pool, mode, gov);
}

std::vector<SimResult> simulate_sweep(const trace::RunTrace& rt,
                                      const std::vector<SweepConfig>& configs,
                                      parallel::ThreadPool* pool,
                                      trace::TraceMode mode,
                                      const Governor* gov) {
  return simulate_sweep_impl(rt, configs, pool, mode, gov);
}

std::vector<SimResult> simulate_many(const trace::CompiledProgram& prog,
                                     const std::vector<SweepConfig>& configs,
                                     parallel::ThreadPool* pool,
                                     trace::TraceMode mode,
                                     const Governor* gov) {
  return simulate_many_impl(prog, configs, pool, mode, gov);
}

std::vector<SimResult> simulate_many(const trace::SpooledTrace& spool,
                                     const std::vector<SweepConfig>& configs,
                                     parallel::ThreadPool* pool,
                                     trace::TraceMode mode,
                                     const Governor* gov) {
  return simulate_many_impl(spool, configs, pool, mode, gov);
}

std::vector<SimResult> simulate_many(const trace::RunTrace& rt,
                                     const std::vector<SweepConfig>& configs,
                                     parallel::ThreadPool* pool,
                                     trace::TraceMode mode,
                                     const Governor* gov) {
  return simulate_many_impl(rt, configs, pool, mode, gov);
}

}  // namespace sdlo::cachesim
