// The `sdlo serve` daemon as a child process, driven over its Unix socket by
// closed-loop connections (one request in flight per connection).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "proc.hpp"
#include "serve/client.hpp"

namespace sdlo_bench {

/// One answered request, as the client saw it.
struct Sample {
  std::size_t distinct = 0;  ///< index into the distinct requests
  int conn = 0;              ///< connection that carried it
  double t0 = 0, t1 = 0;     ///< send / receive, seconds since the origin
  bool parsed = false;       ///< the line parsed as a response envelope
  bool ok = false;           ///< status "ok"
  std::string status;
  bool cached = false;
  double queue_ms = 0, run_ms = 0;  ///< envelope fields
  std::uint64_t payload_hash = 0;

  double latency_ms() const { return (t1 - t0) * 1000.0; }
};

/// A running daemon with `connections` open connections. The destructor
/// shuts it down (or kills it) and reaps it.
class ServeSession {
 public:
  ServeSession(int workers, int connections, Clock::time_point origin);
  ~ServeSession();

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Spawn to first answered `ping`, in seconds.
  double ready_seconds() const { return ready_seconds_; }

  /// Sends `sequence` (indices into `distinct`) closed-loop over every
  /// connection and returns when all are answered. Request ids start at
  /// `first_id`. The payload of the first answer to each index in `keep`
  /// is stored in `kept`.
  std::vector<Sample> run_pass(const std::vector<Job>& distinct,
                               const std::vector<std::size_t>& sequence,
                               std::uint64_t first_id,
                               const std::set<std::size_t>& keep,
                               std::map<std::size_t, std::string>& kept);

  /// Sends each line on a fresh connection and counts the answers that do
  /// not parse as one response line (the connection is then dropped).
  int framing_errors(const std::vector<std::string>& lines);

  /// Returns the daemon's peak RSS in KiB, read just before it is sent
  /// `shutdown`; then waits for it to exit (or kills it).
  long shutdown();

 private:
  std::unique_ptr<Child> child_;
  std::vector<std::unique_ptr<sdlo::serve::Client>> conns_;
  Clock::time_point origin_;
  double ready_seconds_ = 0;
};

/// The end-to-end metrics of serve-mix (tracing off).
Outcome run_serve_workload(const Options& opt, const Workload& w);

}  // namespace sdlo_bench
