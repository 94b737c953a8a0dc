#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "support/failpoints.hpp"

namespace sdlo::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool blank(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

Connection::~Connection() { ::close(fd_); }

void Connection::cancel() {
  dead_.store(true, std::memory_order_release);
  cancel_.request_cancel();
  // Wakes the reader's poll (EOF) and fails in-flight writers promptly.
  ::shutdown(fd_, SHUT_RDWR);
}

bool Connection::write_line(const std::string& line, int timeout_ms) {
  if (dead_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(write_mu_);
  std::string data = line;
  data.push_back('\n');
  const auto start = Clock::now();
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int elapsed_ms =
          static_cast<int>(seconds_since(start) * 1000.0);
      if (elapsed_ms >= timeout_ms) break;  // stuck peer: drop it
      struct pollfd pfd {};
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      const int wait = timeout_ms - elapsed_ms;
      if (::poll(&pfd, 1, wait < 50 ? wait : 50) < 0 && errno != EINTR) {
        break;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // peer closed or hard error
  }
  if (off == data.size()) return true;
  cancel();
  return false;
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(const ServerOptions& opts)
    : opts_(opts), service_(opts.service),
      pool_(opts.workers >= 1 ? opts.workers : 1) {}

Server::~Server() {
  stop();
  if (background_.joinable()) background_.join();
}

void Server::start() {
  if (opts_.socket_path.empty()) throw Error("serve: no socket path");
  sockaddr_un addr{};
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error("serve: socket path too long: " + opts_.socket_path);
  }
  ::unlink(opts_.socket_path.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                        0);
  if (listen_fd_ < 0) throw Error(errno_message("serve: socket"));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const std::string msg = errno_message("serve: bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(msg + " (" + opts_.socket_path + ")");
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string msg = errno_message("serve: listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(msg);
  }
}

void Server::run() {
  accept_loop();
  teardown();
}

void Server::start_background() {
  start();
  // The socket already listens: a client connecting before the loop's
  // first accept simply waits in the backlog.
  background_ = std::thread(&Server::run, this);
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  if (background_.joinable() &&
      background_.get_id() != std::this_thread::get_id()) {
    background_.join();  // run() performs the teardown
  } else {
    teardown();
  }
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !service_.shutdown_requested()) {
    reap_readers(/*all=*/false);
    struct pollfd pfd {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, opts_.poll_interval_ms);
    if (rc <= 0) continue;  // timeout or EINTR: re-check the stop flags
    // An injected accept fault must only drop *this* pending connection:
    // the loop keeps serving (throw and fail are both "skip the accept").
    try {
      if (failpoints::fail_alloc(failpoints::kServeAccept)) continue;
    } catch (const Error&) {
      continue;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) continue;  // raced away or transient error
    service_.metrics().record_connection_opened();
    auto conn = std::make_shared<Connection>(fd);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(readers_mu_);
    conns_.push_back(conn);
    readers_.push_back(
        {std::jthread(&Server::reader_loop, this, conn, done), done});
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn,
                         std::shared_ptr<std::atomic<bool>> done) {
  std::string buf;
  char chunk[4096];
  bool drop = false;
  while (!drop && !stopping_.load(std::memory_order_acquire)) {
    struct pollfd pfd {};
    pfd.fd = conn->fd();
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, opts_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const ssize_t n = ::recv(conn->fd(), chunk, sizeof chunk, 0);
    if (n == 0) break;  // EOF: the client left
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    std::string line;
    while (take_line(buf, line)) {
      if (blank(line)) continue;
      // An injected read fault drops this connection only; concurrent
      // connections (and the daemon) are unaffected.
      try {
        if (failpoints::fail_alloc(failpoints::kServeRead)) {
          drop = true;
        }
      } catch (const Error&) {
        drop = true;
      }
      if (drop) break;
      handle_request_line(conn, line);
    }
  }
  // Trip the token so the connection's in-flight requests stop at their
  // next governed poll instead of computing for a departed peer.
  conn->cancel();
  service_.metrics().record_connection_closed();
  done->store(true, std::memory_order_release);
}

void Server::handle_request_line(const std::shared_ptr<Connection>& conn,
                                 const std::string& line) {
  auto step = service_.admit_line(line);
  if (auto* resp = std::get_if<Response>(&step)) {
    write_response(conn, *resp);
    return;
  }
  const Request req = std::move(std::get<Request>(step));
  // The admission slot travels with the task as a shared deleter, so it is
  // released no matter how the task ends — run, or destroyed by an
  // injected submit fault.
  auto ticket = std::shared_ptr<void>(
      nullptr, [this](void*) { service_.release(); });
  const auto enqueued = Clock::now();
  auto task = [this, conn, req, ticket, enqueued]() {
    const Response resp =
        service_.run(req, conn->cancel_token(), seconds_since(enqueued));
    write_response(conn, resp);
  };
  try {
    if (failpoints::fail_alloc(failpoints::kServeEnqueue)) {
      // Injected queue denial: shed exactly like admission-control
      // overload, typed and retryable.
      write_response(conn, service_.rejected_response(req.id_token, 50));
      return;
    }
    pool_.submit(std::move(task));
  } catch (const std::exception& e) {
    write_response(conn, service_.error_response(req.id_token, e.what()));
  }
}

void Server::write_response(const std::shared_ptr<Connection>& conn,
                            const Response& resp) {
  // An injected write fault corrupts nothing: the line is either written
  // whole (under the connection's write mutex) or the connection dies.
  try {
    if (failpoints::fail_alloc(failpoints::kServeWrite)) {
      conn->cancel();
      return;
    }
  } catch (const Error&) {
    conn->cancel();
    return;
  }
  std::string line;
  try {
    line = render_response(resp);
  } catch (const FramingError& e) {
    // Never send a line a client would split: answer with a typed error.
    Response err;
    err.id_token = resp.id_token;
    err.status = Status::kError;
    err.error = e.what();
    line = render_response(err);
  }
  conn->write_line(line, opts_.write_timeout_ms);
}

void Server::reap_readers(bool all) {
  std::vector<ReaderSlot> finished;
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(conns_,
                  [](const std::weak_ptr<Connection>& w) { return w.expired(); });
  }
  finished.clear();  // joins outside the lock (jthread dtor)
}

void Server::teardown() {
  if (torn_down_.exchange(true, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (const auto& w : conns_) {
      if (auto c = w.lock()) c->cancel();
    }
  }
  reap_readers(/*all=*/true);
  try {
    pool_.wait_idle();
  } catch (...) {
    // An injected pool fault surfaced here; the daemon is shutting down
    // and every connection is already cancelled.
  }
  if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
}

}  // namespace sdlo::serve
