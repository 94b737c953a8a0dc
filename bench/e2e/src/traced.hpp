// The traced run: per-layer numbers from calls into each module's public
// functions, timed from outside with spans (name, start, end, parent, job)
// that are kept in memory and written at exit as Chrome trace-event JSON.
//
// Every distinct job of the workload is replayed in-process once, through
// the same public calls its verb makes, and also run once through the CLI
// (the outputs must be byte-identical). Beside a trace-walking job the
// other trace engines run on the same input (walk, spool write, profiler,
// streamed 1- and 4-thread); beside a misses job the symbolic sweep; beside
// an advise job the dependence pass, the scoring replay and lint. A layer
// that none of the workload's jobs reach is timed on the panel program
// (gallery matmul, N=16) so that every metric is a measurement.
#pragma once

#include "common.hpp"
#include "inputs.hpp"

namespace sdlo_bench {

/// Runs the traced replay of `w`, writes opt.trace_events, and returns
/// every per-layer metric.
Outcome run_traced(const Options& opt, const Workload& w);

}  // namespace sdlo_bench
