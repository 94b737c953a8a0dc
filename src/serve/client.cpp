#include "serve/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "support/check.hpp"

namespace sdlo::serve {

namespace {

using Clock = std::chrono::steady_clock;

int elapsed_ms(Clock::time_point start) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - start)
                              .count());
}

}  // namespace

int BackoffPolicy::delay_ms(int attempt) const {
  double wait = static_cast<double>(base_ms);
  for (int i = 0; i < attempt; ++i) {
    wait *= factor;
    if (wait >= static_cast<double>(max_wait_ms)) return max_wait_ms;
  }
  const int w = static_cast<int>(wait);
  return w > max_wait_ms ? max_wait_ms : w;
}

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error("client: socket path too long: " + socket_path);
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw Error(std::string("client: socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    const std::string msg =
        std::string("client: cannot connect to ") + socket_path + ": " +
        std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error(msg);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_line(const std::string& line) {
  std::string data = line;
  data.push_back('\n');
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw Error(std::string("client: send: ") + std::strerror(errno));
  }
}

std::string Client::recv_line(int timeout_ms) {
  const auto start = Clock::now();
  std::string line;
  while (true) {
    if (take_line(buf_, line)) return line;
    const int remaining = timeout_ms - elapsed_ms(start);
    if (remaining <= 0) throw Error("client: timed out waiting for response");
    struct pollfd pfd {};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, remaining < 50 ? remaining : 50);
    if (rc < 0 && errno != EINTR) {
      throw Error(std::string("client: poll: ") + std::strerror(errno));
    }
    if (rc <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) throw Error("client: server closed the connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      throw Error(std::string("client: recv: ") + std::strerror(errno));
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Response Client::request(const std::string& line, int timeout_ms) {
  send_line(line);
  return parse_response(recv_line(timeout_ms));
}

RetryOutcome request_with_retry(Client& client, const std::string& line,
                                const BackoffPolicy& policy,
                                const std::function<void(int)>& sleep_ms,
                                int timeout_ms) {
  std::function<void(int)> do_sleep = sleep_ms;
  if (!do_sleep) {
    do_sleep = [](int ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  RetryOutcome out;
  const int attempts = policy.max_attempts >= 1 ? policy.max_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    out.response = client.request(line, timeout_ms);
    ++out.attempts;
    if (out.response.status != Status::kRejected) return out;
    if (attempt + 1 >= attempts) break;  // exhausted: return the rejection
    const int hint = out.response.retry_after_ms;
    const int scheduled = policy.delay_ms(attempt);
    const int wait = hint > scheduled ? hint : scheduled;
    out.waits_ms.push_back(wait);
    do_sleep(wait);
  }
  return out;
}

}  // namespace sdlo::serve
