// The four workloads, generated from the seed (bench/e2e/README.md lists
// why each exists). The same seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace sdlo_bench {

/// A workload's inputs.
struct Workload {
  std::string name;
  /// CLI workloads: one round, run in this order.
  std::vector<Job> jobs;
  /// serve-mix: the distinct requests, and one pass as indices into them
  /// (a repeated index is a repeated request).
  std::vector<Job> distinct;
  std::vector<std::size_t> sequence;

  bool is_serve() const { return !sequence.empty(); }
};

/// Builds the inputs of workload `name` for `seed`; throws sdlo::Error on
/// an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

/// The panel job: gallery matmul at N=16, the fixed small input the traced
/// run times a layer on when none of the workload's jobs reach it.
Job panel_job();

/// Writes each distinct program file of `jobs` into the current directory.
void write_program_files(const std::vector<Job>& jobs);

}  // namespace sdlo_bench
