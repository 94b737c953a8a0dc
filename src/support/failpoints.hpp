// Failpoints: named fault-injection sites for robustness testing.
//
// A failpoint is a named hook compiled into a production code path. When
// disarmed (the default) a hook costs one relaxed atomic load. When armed —
// via the SDLO_FAILPOINTS environment variable or the programmatic
// ScopedFailpoint used by tests — the hook performs an injected fault:
//
//   throw       raise InjectedFault (a typed sdlo::Error) at the site
//   fail        report an allocation/IO denial the site must degrade from
//   delay:<ms>  sleep, widening race and timeout windows
//
// SDLO_FAILPOINTS is a comma-separated list of `site=action` specs, e.g.
//
//   SDLO_FAILPOINTS="sweep-dense-alloc=fail,artifact-write=throw"
//   SDLO_FAILPOINTS="pool-task=delay:20"
//
// The registered sites (kAllSites) sit at exactly the places where a
// resource-governed driver makes a robustness promise: the dense-engine
// allocations (a denial must truncate to the exact empty prefix, walking
// nothing), the thread-pool submit/task boundary (a throwing task must
// surface from wait_idle(), never std::terminate), the fuzz artifact
// write (a killed write must never leave a truncated replay file), the
// oracle battery step (a failing oracle run must surface as a typed error
// from the CLI), the trace-spool write (a killed spool write must never
// leave a partial spool file behind at the destination path), and the serve
// daemon's accept/read/write/enqueue boundaries (a faulted connection must
// be dropped — never crash the daemon, hang a peer, leak a descriptor, or
// corrupt a concurrent response).
// tests/robustness_test.cpp walks this list and proves each promise.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace sdlo {

/// The typed error an armed `throw` failpoint raises.
class InjectedFault : public Error {
 public:
  using Error::Error;
};

namespace failpoints {

/// What an armed failpoint does when its site is hit.
enum class Action : std::uint8_t { kOff, kThrow, kFailAlloc, kDelay };

/// One armed failpoint configuration.
struct Spec {
  Action action = Action::kOff;
  int delay_ms = 0;  ///< kDelay only
};

/// Every registered injection site. Arming an unlisted name is allowed
/// (sites are matched by string), but these are the ones the code hits.
inline constexpr const char* kSweepDenseAlloc = "sweep-dense-alloc";
inline constexpr const char* kPoolSubmit = "pool-submit";
inline constexpr const char* kPoolTask = "pool-task";
inline constexpr const char* kArtifactWrite = "artifact-write";
inline constexpr const char* kOracleStep = "oracle-step";
inline constexpr const char* kSpoolWrite = "spool-write";
inline constexpr const char* kServeAccept = "serve-accept";
inline constexpr const char* kServeRead = "serve-read";
inline constexpr const char* kServeWrite = "serve-write";
inline constexpr const char* kServeEnqueue = "serve-enqueue";

inline constexpr std::array<const char*, 10> kAllSites = {
    kSweepDenseAlloc, kPoolSubmit,  kPoolTask,   kArtifactWrite,
    kOracleStep,      kSpoolWrite,  kServeAccept, kServeRead,
    kServeWrite,      kServeEnqueue};

/// True when any failpoint is armed (env or scoped). The disarmed fast
/// path is a single relaxed atomic load.
bool armed();

/// Hook for non-allocation sites: no-op when the site is disarmed; throws
/// InjectedFault for `throw`; sleeps for `delay`. A `fail` spec on a
/// non-allocation site is a no-op.
void hit(const char* site);

/// Hook for allocation/IO-denial sites: returns true when the site should
/// behave as if the allocation was denied (`fail`); throws for `throw`;
/// sleeps (returning false) for `delay`.
bool fail_alloc(const char* site);

/// Parses one SDLO_FAILPOINTS-style spec value ("throw", "fail",
/// "delay:25"). Throws ParseError on malformed input.
Spec parse_spec(const std::string& value);

/// Arms failpoints from a full spec string ("a=throw,b=delay:5"); used by
/// the env-variable bootstrap and by tests. Throws ParseError on malformed
/// input. Returns the number of sites armed.
int configure(const std::string& specs);

/// Disarms every programmatically armed failpoint (env-armed ones
/// included). Intended for test teardown.
void clear();

/// Arms `site` for the lifetime of the object, then restores the previous
/// state. Nesting on the same site restores in LIFO order.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, Spec spec);
  ~ScopedFailpoint();

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
  Spec previous_;
  bool had_previous_ = false;
};

}  // namespace failpoints
}  // namespace sdlo
