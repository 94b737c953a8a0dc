// Child processes: the `sdlo` binary under test, timed spawn-to-reap, with
// its peak RSS.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace sdlo_bench {

/// What one finished child produced.
struct ChildResult {
  int exit_code = -1;  ///< -1 when a signal ended it
  double seconds = 0;  ///< posix_spawn to wait4
  long maxrss_kb = 0;  ///< ru_maxrss of the child
  std::string out;     ///< captured stdout
  std::string err;     ///< captured stderr
};

/// Runs argv to completion in the current directory through
/// sdlo_bench_exec (exec_main.cpp), capturing stdout and stderr through
/// files (no pipe to drain while timing).
ChildResult run_child(const std::vector<std::string>& argv);

/// A background child (the daemon). The destructor kills and reaps it if
/// it is still running, so no error path leaves a process behind.
class Child {
 public:
  /// Spawns argv with stdout and stderr appended to `log_path`.
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Waits up to `timeout_s` for the child to exit; true once reaped.
  bool wait(double timeout_s);
  /// SIGTERM, then SIGKILL after a grace period; always reaps.
  void kill_and_reap();
  /// The running child's peak RSS so far in KiB (VmHWM), 0 if unknown.
  long peak_rss_kb() const;

  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
};

}  // namespace sdlo_bench
