// The `utilrisk serve` child process under test.
//
// Spawns the real binary with its stdout and stderr on one pipe, reads
// its banner lines ("[recovered N ...; digest D]", "[serving on ...]")
// and, after a SIGTERM, its drain summary ("digest:", "busy:", ...). The
// destructor kills and reaps a child that is still running, so no run of
// the benchmark leaves a server behind, on error paths too.
#pragma once

#include <sys/types.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace utilrisk::perfbench {

class ServerProcess {
 public:
  /// fork + exec `binary args...`; throws std::runtime_error on failure.
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Reads lines until one starts with `prefix` (returned) or the timeout
  /// expires / output ends (nullopt).
  [[nodiscard]] std::optional<std::string> wait_for(const std::string& prefix,
                                                    double timeout_seconds);

  /// SIGTERM, read the rest of the output, reap. Returns the drain
  /// summary as "key" -> "value" (the `key:   value` lines). Throws
  /// std::runtime_error when the child does not exit cleanly within
  /// `timeout_seconds`.
  ///
  /// `utilrisk serve` answers requests as soon as its socket is bound but
  /// installs its SIGTERM handler only after printing "[serving on ...]";
  /// a SIGTERM in between kills it undrained. So stop() first waits for
  /// that line and then kHandlerGrace before signalling.
  std::map<std::string, std::string> stop(double timeout_seconds = 60.0);

 private:
  /// Next output line, or nullopt on timeout / end of output.
  [[nodiscard]] std::optional<std::string> read_line(double timeout_seconds);
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  bool eof_ = false;
  bool serving_ = false;  ///< the "[serving on" line was read
};

/// A "Vm...:" field of /proc/<pid>/status in bytes (0 when unreadable).
/// `pid` 0 reads the calling process.
[[nodiscard]] double proc_status_bytes(pid_t pid, const std::string& field);

}  // namespace utilrisk::perfbench
