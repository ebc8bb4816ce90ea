#include "process.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace utilrisk::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Time the server needs from printing "[serving on ...]" to installing
/// its SIGTERM handler (a few instructions; generous for a loaded host).
constexpr std::chrono::milliseconds kHandlerGrace{50};

double seconds_left(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t");
  if (first == std::string::npos) return {};
  const auto last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
}

ServerProcess::~ServerProcess() {
  kill_and_reap();
  if (out_fd_ >= 0) ::close(out_fd_);
}

void ServerProcess::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

std::optional<std::string> ServerProcess::read_line(double timeout_seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    if (const auto nl = buffer_.find('\n'); nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      serving_ = serving_ || line.rfind("[serving on", 0) == 0;
      return line;
    }
    if (eof_) return std::nullopt;
    const double left = seconds_left(deadline);
    if (left <= 0.0) return std::nullopt;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return std::nullopt;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> ServerProcess::wait_for(const std::string& prefix,
                                                   double timeout_seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    const double left = seconds_left(deadline);
    if (left <= 0.0) return std::nullopt;
    auto line = read_line(left);
    if (!line) return std::nullopt;
    if (line->rfind(prefix, 0) == 0) return line;
  }
}

std::map<std::string, std::string> ServerProcess::stop(
    double timeout_seconds) {
  if (pid_ <= 0) throw std::runtime_error("server already stopped");
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  if (!serving_ && !wait_for("[serving on", seconds_left(deadline))) {
    kill_and_reap();
    throw std::runtime_error("server never reported serving");
  }
  std::this_thread::sleep_for(kHandlerGrace);
  ::kill(pid_, SIGTERM);
  std::map<std::string, std::string> summary;
  while (seconds_left(deadline) > 0.0) {
    const auto line = read_line(seconds_left(deadline));
    if (!line) break;
    const auto colon = line->find(':');
    if (colon != std::string::npos && !line->empty() && (*line)[0] != '[') {
      summary[trim(line->substr(0, colon))] = trim(line->substr(colon + 1));
    }
  }
  // Output ended (or the deadline passed): the child should be exiting.
  int status = 0;
  pid_t reaped = 0;
  while (seconds_left(deadline) > 0.0) {
    reaped = ::waitpid(pid_, &status, WNOHANG);
    if (reaped != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped != pid_) {
    kill_and_reap();
    throw std::runtime_error("server did not exit after SIGTERM");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::ostringstream message;
    message << "server exited abnormally (status " << status << ")";
    throw std::runtime_error(message.str());
  }
  return summary;
}

double proc_status_bytes(pid_t pid, const std::string& field) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kib = 0.0;
      fields >> kib;
      return kib * 1024.0;
    }
  }
  return 0.0;
}

}  // namespace utilrisk::perfbench
