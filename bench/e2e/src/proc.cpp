#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "support/check.hpp"

// CMakeLists.txt defines SDLO_BENCH_EXEC_PATH, the sdlo_bench_exec binary.

extern char** environ;

namespace sdlo_bench {

namespace {

pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path,
            const std::string& err_path, bool append) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  const int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
  posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null", O_RDONLY,
                                   0);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, out_path.c_str(),
                                   flags, 0644);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                   flags, 0644);
  std::vector<std::string> storage = argv;
  std::vector<char*> args;
  for (std::string& s : storage) args.push_back(s.data());
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw sdlo::Error("posix_spawn " + argv[0] + ": " + std::strerror(rc));
  }
  return pid;
}

/// Reaps pid, blocking; returns its exit code (-1 when a signal ended it).
int reap(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw sdlo::Error("waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

ChildResult run_child(const std::vector<std::string>& argv) {
  std::vector<std::string> exec{SDLO_BENCH_EXEC_PATH, "child.stdout",
                                "child.stderr"};
  exec.insert(exec.end(), argv.begin(), argv.end());
  if (reap(spawn(exec, "child.result", "exec.stderr", false)) != 0) {
    throw sdlo::Error("cannot run " + argv[0] + ": " +
                      read_file("exec.stderr"));
  }
  ChildResult r;
  std::istringstream result(read_file("child.result"));
  if (!(result >> r.exit_code >> r.seconds >> r.maxrss_kb)) {
    throw sdlo::Error("sdlo_bench_exec printed no result for " + argv[0]);
  }
  r.out = read_file("child.stdout");
  r.err = read_file("child.stderr");
  if (r.err.size() > 2000) r.err.resize(2000);
  return r;
}

Child::Child(const std::vector<std::string>& argv,
             const std::string& log_path)
    : pid_(spawn(argv, log_path, log_path, true)) {}

Child::~Child() { kill_and_reap(); }

bool Child::wait(double timeout_s) {
  if (pid_ <= 0) return true;
  const auto start = Clock::now();
  while (true) {
    const pid_t got = waitpid(pid_, nullptr, WNOHANG);
    if (got == pid_ || (got < 0 && errno != EINTR)) {
      pid_ = -1;
      return true;
    }
    if (seconds_between(start, Clock::now()) >= timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Child::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  if (wait(2.0)) return;
  ::kill(pid_, SIGKILL);
  wait(60.0);
}

long Child::peak_rss_kb() const {
  if (pid_ <= 0) return 0;
  // VmHWM covers only the memory the child mapped after its exec, unlike
  // wait4's ru_maxrss, which also counts this process's.
  std::istringstream status(
      read_file("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

}  // namespace sdlo_bench
