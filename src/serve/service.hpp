// Transport-independent core of the serve daemon (DESIGN.md §16).
//
// Service owns everything about request execution that is not a socket:
// the per-line pipeline (admit_line: parse, control verbs, admission,
// shared by the socket reader and handle_line), the per-request Governor
// (deadline, shared memory budget, cancellation), the memo cache and the
// metrics. It runs every analysis verb through analysis::run_verb, the
// function behind `sdlo <verb>` too — which is how the daemon keeps its
// headline promise that a response payload is byte-identical to the
// equivalent `sdlo <verb> --json` invocation, and a bad knob the same
// error (the fuzz `serve` oracle enforces the bytes, memo-cache hits
// included).
//
// Admission control sheds load instead of queueing it unboundedly: a
// request is admitted only while fewer than `max_active` requests are in
// flight AND the shared MemoryBudget is not contended (≥ 7/8 used). A shed
// request gets a typed `rejected` response with a `retry_after_ms` hint
// that grows with the overload — the bundled client's retry helper honors
// it. Degradation inside an admitted request is the governor's job: the
// budget is never exceeded, so a sweep denied its dense tables answers the
// truncated empty prefix (a pooled plan first retries as one chunk, with
// the same bytes), the advisor downgrades exact scoring to the fast
// model, and a tripped deadline truncates to a valid partial payload —
// each surfaced through the response `status`, mirroring the CLI exit-code
// taxonomy. A truncated payload is never memoized.
//
// Thread safety: one Service is shared by every connection and worker of a
// Server; all public methods are safe to call concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <variant>

#include "serve/memo_cache.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "support/governor.hpp"

namespace sdlo::serve {

struct ServiceOptions {
  /// Shared dense-table ceiling for every concurrent request; 0 = none.
  std::uint64_t memory_budget_bytes = 0;
  /// Per-request deadline when the request names none; 0 = none.
  double default_deadline_sec = 0;
  /// Clamp on client-supplied deadlines (a tenant cannot hog a worker).
  double max_deadline_sec = 300;
  /// Admission bound: requests in flight (queued + running) beyond this
  /// are shed with `rejected` + retry_after_ms.
  int max_active = 64;
  /// Memo cache entries (0 disables caching).
  std::size_t cache_entries = 256;
  /// Requests whose program text exceeds this are errors, not analyses.
  std::size_t max_program_bytes = std::size_t{1} << 20;
};

class Service {
 public:
  explicit Service(const ServiceOptions& opts = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// The per-line steps every transport shares, up to running: records
  /// the line, parses it, answers a malformed line or a control verb
  /// (stats/ping/shutdown) inline, then claims an admission slot — a shed
  /// line is answered `rejected` inline too. Returns the inline response,
  /// or the admitted request, which the caller must run() and then
  /// release().
  std::variant<Response, Request> admit_line(const std::string& line);

  /// Runs one admitted request to a terminal state. Never throws: every
  /// failure becomes a typed response status. `cancel` is the transport's
  /// token (tripped on client disconnect); `queue_seconds` is the time the
  /// request spent between admission and this call.
  Response run(const Request& req, const CancellationToken& cancel,
               double queue_seconds);

  /// Frees the admission slot of a request admit_line() admitted.
  void release();

  /// admit_line(), then run() and release() when admitted: the whole
  /// per-line pipeline minus the socket. Used by in-process callers (the
  /// fuzz serve-vs-CLI oracle, tests).
  Response handle_line(const std::string& line,
                       const CancellationToken& cancel = {});

  /// Builds a typed error response — for a line that does not parse, or
  /// an admitted request a transport could not schedule — and records it
  /// in the metrics.
  Response error_response(const std::string& id_token,
                          const std::string& message);

  /// Builds the typed shed response and records it in the metrics.
  Response rejected_response(const std::string& id_token,
                             int retry_after_ms);

  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  int active() const { return active_.load(std::memory_order_relaxed); }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  MemoCache& cache() { return cache_; }
  const ServiceOptions& options() const { return opts_; }

 private:
  /// Answers one analysis verb from the memo cache or run_verb; may throw
  /// (run() owns the taxonomy). Fills payload, status and error.
  void dispatch(const Request& req, const Governor* gov, Response& resp);
  Response run_single(const Request& req, const CancellationToken& cancel,
                      double queue_seconds);
  /// Answers a control verb; the caller records it in the metrics.
  Response control(const Request& req);
  /// Admission check. Returns 0 and claims a slot on success; returns the
  /// retry_after_ms hint (> 0) when the request must be shed — queue bound
  /// exceeded or memory contended.
  int try_admit();

  const ServiceOptions opts_;
  MemoryBudget budget_;
  MemoCache cache_;
  Metrics metrics_;
  std::atomic<int> active_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace sdlo::serve
