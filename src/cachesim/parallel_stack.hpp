// Time-partitioned stack distance: the streamed sweep engine.
//
// The engine simulates one geometry, the paper's fully-associative LRU
// cache (§5.2), at many capacities and line sizes at once; a
// set-associative configuration is a ContractViolation (simulate_set_assoc
// in sim.hpp models those caches one at a time). It runs one of two plans:
// one chunk on the calling thread, or, given a pool of >= 2 threads, N
// chunks on the pool.
//
// One stack-distance computation — a single fully-associative sweep over
// one trace — is made to scale across cores by partitioning the
// run-compressed trace in TIME: the group stream is split into contiguous
// chunks of roughly equal access counts (chunk boundaries are always run
// group boundaries, located analytically with group_of_access), and each
// chunk is profiled independently with its own MarkerStackEngine and dense
// tables. Each chunk walks its own group range with
// CompiledProgram::walk_runs_range, which seeks to the range's first group
// in O(plan depth), so chunks profile concurrently with no producer
// between them. An optional tee spool writer gets one more walk of the
// whole range, on the caller.
//
// Within a chunk every reuse whose source also lies in the chunk has its
// exact global stack depth — the reuse window is a contiguous slice of the
// global trace — so the per-chunk hit buckets are globally correct as-is.
// The only accesses a chunk cannot classify are its "holes": the first
// touch of each line within the chunk, whose previous access (if any) lies
// in an earlier chunk. Engines record holes in program order; once every
// chunk has finished profiling, a sequential merge pass on the caller
// resolves every hole exactly (this is the time-partitioning idea of
// PARDA-style parallel stack distance, built on the RecencyIndex that
// profile_stack_distances also uses):
//
//   Chunks are folded strictly in trace order, and each chunk's engine is
//   freed right after its fold. The merge's RecencyIndex keeps, per line
//   touched by previous chunks and not since re-touched, its last-access
//   timestamp. For the j-th hole (0-based) of a chunk, with its line found
//   at timestamp p:
//
//     depth = (live timestamps >= p, including the line's own) + j
//
//   — the first term counts the distinct lines whose last pre-chunk access
//   falls inside the reuse window and which the chunk has not touched
//   before this hole; the j term counts the chunk's own earlier first
//   touches (each a distinct line inside the window). The line is then
//   deleted from the merge structure, so later holes never double-count
//   it. A hole whose line is absent is a true cold access. After a chunk's
//   holes, its resident lines are appended in final last-access order
//   (MarkerStackEngine::recency_order — exact, the bulk fast paths
//   preserve it) with fresh monotone timestamps.
//
// A one-chunk plan has no reuse that crosses a chunk boundary: its engine
// runs with no hole sink and no merge index, and its buckets fold straight
// into the results (fold_segments).
//
// The merged result — per-site segment buckets summed across chunks plus
// the resolved holes — is bit-identical to the one-chunk run, including
// misses_by_site, at every capacity, and to the per-configuration
// simulate_lru_lines reference.
//
// Governance: the dense tables are reserved against the memory budget up
// front, one set per chunk. A pooled plan also charges each chunk's hole
// list (at most one Hole per footprint line) and the merge index at its
// worst-case size (RecencyIndex::max_bytes). The budget is never
// exceeded; a denied reservation costs completeness instead:
//   1. a pooled plan retries as one chunk with no pool, which needs only
//      the stack tables (fp * kStackBytesPerLine per line size) and gives
//      the same bytes;
//   2. when that is denied too — or the sweep-dense-alloc failpoint injects
//      a denial — nothing is walked, the tee included: every row is the
//      exact empty prefix (0 accesses, 0 misses), marked
//      Completeness::kTruncated — the rows a governor trip before the
//      first group gives.
// Every chunk walk polls the governor, so a deadline or
// cancellation stops it at a group boundary; the merged result is then the
// bit-exact simulation of the longest contiguous prefix profiled (the
// merge runs through the earliest incomplete chunk and discards the
// rest), marked Completeness::kTruncated. PartitionOptions::max_groups
// caps the walk at a deterministic prefix for tests, independent of
// timing.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/results.hpp"
#include "cachesim/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "support/governor.hpp"
#include "trace/spool.hpp"
#include "trace/walker.hpp"

namespace sdlo::cachesim {

/// Phase accounting of streamed sweeps, accumulated across calls. Seconds
/// are wall-clock on the calling thread, and stay 0 on the one-chunk plan.
struct PartitionStats {
  /// Time spent in the hole merge, after every chunk has finished.
  double merge_seconds = 0;
  /// Time the caller spent waiting for the chunks after its tee walk.
  double merge_wait_seconds = 0;
  /// Chunks profiled.
  std::uint64_t chunks = 0;
  /// Always 0: the merge starts only after every chunk has finished. Kept
  /// because the benchmark's traced run still reports it.
  std::uint64_t overlapped_merges = 0;
};

/// How to split the trace in time.
struct PartitionOptions {
  /// Chunks to split into when `chunks` is 0; 0 uses the pool's thread
  /// count (1 without a pool).
  int threads = 0;
  /// Explicit chunk-count override (hole-merge tests); 0 splits the trace
  /// evenly across threads. Clamped to the run-group count. Without a pool
  /// of >= 2 threads the engine always runs one chunk.
  int chunks = 0;
  /// When nonzero, process only the first max_groups run groups and mark
  /// the result truncated if that is a proper prefix — the deterministic
  /// stand-in for a timing-dependent governor trip.
  std::uint64_t max_groups = 0;
  /// When non-null, phase timings and the chunk count accumulate here.
  PartitionStats* stats = nullptr;
};

/// Configuration of the streamed sweep driver.
struct StreamOptions {
  /// Chunking and stats.
  PartitionOptions partition;
  /// When non-null, every run group is also appended here, in program
  /// order, by one walk on the calling thread (on a pool, while the
  /// workers profile). The caller keeps ownership and decides whether to
  /// finish() the writer (a governor trip leaves a valid spool of exactly
  /// the walked prefix; a sweep denied its tables appends nothing).
  trace::SpoolWriter* tee = nullptr;
};

/// The one multi-configuration simulation entry point: profiles the
/// compiled program's time chunks, each walking its own group range and
/// feeding every requested line size's engine for that chunk, then
/// resolves holes with the in-order hole merge. Results are exact and
/// returned in `configs` order, bit-identical to per-configuration
/// simulate_lru / simulate_lru_lines. Throws ContractViolation when a
/// configuration is not a valid fully-associative geometry.
///
/// With a pool of >= 2 threads and more than one chunk, each chunk is one
/// pool task; the caller walks the tee, waits for every chunk, rethrowing
/// the first task error, and merges them in trace order. Otherwise the
/// caller runs one chunk, which needs no hole list and no merge table (the
/// lowest-memory exact path). When the memory budget denies the dense
/// tables, the run retries as one chunk, then returns the truncated empty
/// prefix, as the file comment describes.
std::vector<SimResult> simulate_sweep_streamed(
    const trace::CompiledProgram& prog,
    const std::vector<SweepConfig>& configs,
    parallel::ThreadPool* pool = nullptr, const StreamOptions& opt = {},
    const Governor* gov = nullptr);

}  // namespace sdlo::cachesim
