// sdlo_bench_exec — runs one command for sdlo_bench and reports how it ran.
//
//   sdlo_bench_exec OUT ERR PROGRAM [ARG...]
//
// Runs PROGRAM with stdin from /dev/null and stdout and stderr written to
// the files OUT and ERR, then prints one line: the exit code (-1 when a
// signal ended it), the seconds from spawn to reap, and the child's peak
// RSS in KiB from wait4. Exits 0 once the command has run, whatever its
// exit code, and 127 when it could not be started.
//
// sdlo_bench starts commands through this small program because Linux
// counts the memory of the process a child is spawned from in the child's
// ru_maxrss: spawned straight from sdlo_bench, every job would report at
// least sdlo_bench's own peak RSS. This program touches little memory, so
// the jobs it starts report their own.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>

extern char** environ;

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: sdlo_bench_exec OUT ERR PROGRAM [ARG...]\n");
    return 2;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  const int flags = O_WRONLY | O_CREAT | O_TRUNC;
  posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null", O_RDONLY,
                                   0);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, argv[1], flags, 0644);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, argv[2], flags, 0644);
  const auto start = std::chrono::steady_clock::now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[3], &fa, nullptr, argv + 3, environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    std::fprintf(stderr, "sdlo_bench_exec: cannot start %s (errno %d)\n",
                 argv[3], rc);
    return 127;
  }
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) return 127;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::printf("%d %.9f %ld\n", code, seconds, ru.ru_maxrss);
  return 0;
}
