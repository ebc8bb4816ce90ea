#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace utilrisk::perfbench {

Connection::Connection(const std::string& path, double timeout_seconds) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") +
                               std::strerror(errno));
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return;
    }
    const int error = errno;
    ::close(fd_);
    fd_ = -1;
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("cannot connect to " + path + ": " +
                               std::strerror(error));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::write_all(std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Connection::Read Connection::read_line(std::string& line, int timeout_ms) {
  for (;;) {
    const auto nl = buffer_.find('\n', consumed_);
    if (nl != std::string::npos) {
      line.assign(buffer_, consumed_, nl - consumed_);
      consumed_ = nl + 1;
      return Read::Line;
    }
    if (consumed_ > 0) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) return Read::Timeout;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Read::Closed;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Read::Closed;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace utilrisk::perfbench
