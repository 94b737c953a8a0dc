// Unix-domain socket transport of the serve daemon (DESIGN.md §16).
//
// One Server wraps one Service. The accept loop hands each connection a
// reader thread; a reader splits the byte stream into request lines with
// take_line, passes each to Service::admit_line (the parse, control-verb
// and admission steps Service::handle_line runs too), writes an inline
// answer back, and schedules admitted requests on the shared
// parallel::ThreadPool — so a slow request from one tenant never blocks
// another tenant's reader, and responses to one connection may complete
// out of order (matched by id).
//
// Robustness invariants (the failpoint matrix in tests/robustness_test.cpp
// drives serve-accept / serve-read / serve-write / serve-enqueue through
// throw/fail/delay to prove them):
//
//   * a fault on one connection closes *that* connection — the daemon
//     keeps serving the others and never crashes or hangs;
//   * every descriptor is closed exactly once (no leaks under any fault);
//   * a response line is written under the connection's write mutex, so a
//     concurrent response is never interleaved or corrupted;
//   * a client disconnect trips the connection's CancellationToken, so
//     its in-flight requests stop at the next governed poll instead of
//     burning a worker for a peer that left.
//
// Shutdown: stop() (or a client's `shutdown` verb) closes the listen
// socket, cancels every connection, joins the readers and drains the pool.
// All socket waits are bounded polls — no call can block forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "serve/service.hpp"

namespace sdlo::serve {

struct ServerOptions {
  std::string socket_path;       ///< required; unlinked on start and stop
  int workers = 4;               ///< shared pool size (>= 1)
  ServiceOptions service;
  /// Accept/read poll granularity; bounds shutdown latency.
  int poll_interval_ms = 50;
  /// A blocked client must drain a response within this window or its
  /// connection is dropped (a stuck peer cannot wedge a writer).
  int write_timeout_ms = 10'000;
};

/// One accepted client connection. Shared by the reader thread and every
/// pool task answering one of its requests; the descriptor closes when the
/// last holder drops its reference.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes one response line (appending '\n') atomically with respect to
  /// other writers on this connection. Returns false — and cancels the
  /// connection — on any write failure or timeout.
  bool write_line(const std::string& line, int timeout_ms);

  /// Trips the cancellation token every in-flight request of this
  /// connection polls, and shuts the socket down.
  void cancel();

  int fd() const { return fd_; }
  const CancellationToken& cancel_token() const { return cancel_; }

 private:
  const int fd_;
  std::mutex write_mu_;
  CancellationToken cancel_;
  std::atomic<bool> dead_{false};
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on opts.socket_path (throws Error on failure).
  void start();

  /// Accept loop; returns after stop() or a client's `shutdown` verb.
  void run();

  /// start() + run() in a background thread; returns once the socket
  /// accepts connections. Used by tests and the bundled client's
  /// in-process harness.
  void start_background();

  /// Idempotent: ends the accept loop, cancels every connection, joins
  /// readers, drains the pool, unlinks the socket.
  void stop();

  Service& service() { return service_; }
  const ServerOptions& options() const { return opts_; }

 private:
  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn,
                   std::shared_ptr<std::atomic<bool>> done);
  void handle_request_line(const std::shared_ptr<Connection>& conn,
                           const std::string& line);
  void write_response(const std::shared_ptr<Connection>& conn,
                      const Response& resp);
  /// Joins reader threads; with all == false only the finished ones (their
  /// `done` flag is set as the loop's last act, so the join is instant).
  void reap_readers(bool all);
  /// Idempotent teardown shared by run() and stop().
  void teardown();

  /// A reader thread and its completion flag (a jthread cannot be asked
  /// "are you done" without blocking, so the loop reports for itself).
  struct ReaderSlot {
    std::jthread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  const ServerOptions opts_;
  Service service_;
  parallel::ThreadPool pool_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> torn_down_{false};
  std::mutex readers_mu_;
  std::vector<ReaderSlot> readers_;
  std::vector<std::weak_ptr<Connection>> conns_;
  std::thread background_;
};

}  // namespace sdlo::serve
