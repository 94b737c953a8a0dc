// Batched multi-configuration cache simulation (the sweep engine).
//
// Every validation table and tile-search ablation wants the same trace
// evaluated against many cache configurations. Walking the trace once per
// configuration wastes both the trace generation and — for fully
// associative LRU — the simulation itself: by Mattson's inclusion property
// the LRU stack of a small cache is a prefix of the LRU stack of a larger
// one, so a single annotated stack answers every capacity at once.
//
// simulate_sweep() exploits this with a marker-augmented LRU stack: one
// doubly-linked stack plus one boundary marker per requested capacity.
// Addresses are element indices in the contiguous [0, address_space_size())
// space, so the stack's address map is a dense direct-indexed table keyed
// by addr >> log2(line_elems) — no hashing anywhere on the access path.
// Each access costs O(1) table work plus O(#crossed boundaries) pointer
// updates and yields, exactly, the SimResult (including misses_by_site) of
// every fully-associative configuration sharing that line size.
// Set-associative configurations, which the inclusion property does not
// cover, fall back to simulate_many(): real LruCache/SetAssocCache
// instances fed from a single shared trace walk.
//
// Both entry points consume the run-compressed trace (walk_runs) by
// default: constant-stride run groups are classified in bulk where the
// stack state provably repeats (same-line tails, all-stride-0 groups) and
// decompressed per element otherwise — bit-identical either way. Passing
// trace::TraceMode::kBatched forces the historical per-access walk (the
// differential-testing reference path).
//
// Both entry points accept an optional parallel::ThreadPool. Independent
// simulation units (one per line-size group / per cache chunk) then run on
// worker threads, each performing its own walk of the shared
// CompiledProgram (walks are const and re-entrant).
//
// Both entry points also accept an optional Governor (support/governor.hpp):
// each walk polls every `poll_interval` run groups and, when the deadline
// or cancellation trips, stops at a run-group boundary and returns the
// exact results of the consumed prefix, marked Completeness::kTruncated
// (with a pool, each worker's chunk truncates at its own prefix). A memory
// budget gates the dense direct-indexed address tables: when a reservation
// is denied — or the sweep-dense-alloc failpoint is armed — the engine
// degrades to hashed-table units, bit-identical but slower.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/sim.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace sdlo::cachesim {

/// One cache configuration of a sweep.
struct SweepConfig {
  /// Total capacity in elements (> 0; a multiple of line_elems).
  std::int64_t capacity_elems = 0;
  /// Line size in elements (a power of two; 1 = the paper's element model).
  std::int64_t line_elems = 1;
  /// Associativity: 0 = fully associative (single-pass marker engine);
  /// otherwise a W-way set-associative geometry (shared-walk fallback).
  int ways = 0;
  /// Replacement policy for set-associative configurations.
  Replacement policy = Replacement::kLru;
};

/// Throws ContractViolation unless `c` is a valid geometry: a positive
/// capacity that is a whole number of lines of a power-of-two size.
void check_sweep_config(const SweepConfig& c);

/// Simulates every configuration with as few trace walks as possible:
/// fully-associative configurations sharing a line size are answered by one
/// marker-augmented LRU stack each; set-associative configurations are fed
/// from shared walks. Results are exact and returned in `configs` order,
/// bit-identical to per-configuration simulate_lru / simulate_lru_lines /
/// simulate_set_assoc — in either trace mode. With a pool, independent
/// units run in parallel.
std::vector<SimResult> simulate_sweep(
    const trace::CompiledProgram& prog,
    const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool = nullptr,
    trace::TraceMode mode = trace::TraceMode::kRuns,
    const Governor* gov = nullptr);

/// Same sweep fed from an out-of-core spool file: the engines stream run
/// groups back through the spool's bounded read window, so peak memory is
/// the simulation tables plus the window — never the trace. Bit-identical
/// to the CompiledProgram overload on the spooled program.
std::vector<SimResult> simulate_sweep(
    const trace::SpooledTrace& spool,
    const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool = nullptr,
    trace::TraceMode mode = trace::TraceMode::kRuns,
    const Governor* gov = nullptr);

/// Same sweep fed from a materialized in-memory run trace.
std::vector<SimResult> simulate_sweep(
    const trace::RunTrace& rt, const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool = nullptr,
    trace::TraceMode mode = trace::TraceMode::kRuns,
    const Governor* gov = nullptr);

/// Shared-walk fallback: instantiates one real cache per configuration
/// (LruCache for ways == 0, SetAssocCache otherwise) and feeds all of them
/// from a single trace walk (or one walk per worker with a pool), each
/// cache consuming whole batches / run groups at a time with its tables
/// pre-sized from the program footprint. Exact but O(#configs) work per
/// access; prefer simulate_sweep, which routes each configuration to the
/// cheapest engine.
std::vector<SimResult> simulate_many(
    const trace::CompiledProgram& prog,
    const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool = nullptr,
    trace::TraceMode mode = trace::TraceMode::kRuns,
    const Governor* gov = nullptr);

/// Shared-walk fallback fed from a spool file.
std::vector<SimResult> simulate_many(
    const trace::SpooledTrace& spool,
    const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool = nullptr,
    trace::TraceMode mode = trace::TraceMode::kRuns,
    const Governor* gov = nullptr);

/// Shared-walk fallback fed from a materialized in-memory run trace.
std::vector<SimResult> simulate_many(
    const trace::RunTrace& rt, const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool = nullptr,
    trace::TraceMode mode = trace::TraceMode::kRuns,
    const Governor* gov = nullptr);

}  // namespace sdlo::cachesim
