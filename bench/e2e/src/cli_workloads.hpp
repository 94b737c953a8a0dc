// Timed runs of the three CLI workloads: each job is one `sdlo` child
// process, run one at a time, round after round until the run's time is up.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "proc.hpp"

namespace sdlo_bench {

/// The end-to-end metrics of a CLI workload (tracing off), with every job
/// output checked against a reference computed once, untimed.
Outcome run_cli_workload(const Options& opt, const Workload& w);

/// Runs the sdlo binary with `args`.
ChildResult run_sdlo(const std::vector<std::string>& args);

}  // namespace sdlo_bench
