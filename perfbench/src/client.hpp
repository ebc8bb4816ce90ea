// The benchmark's own NDJSON client over a Unix-domain socket.
//
// Deliberately not serve::run_loadgen: the benchmark times every request
// from its due instant and books busy/shed/error/dropped answers as
// misses, never as latency samples (docs in perfbench/README.md). This
// is only the transport: line-framed writes and reads with a timeout.
// One thread may write while another reads (sockets are full duplex);
// each side is single-threaded.
#pragma once

#include <string>
#include <string_view>

namespace utilrisk::perfbench {

class Connection {
 public:
  /// Connects, retrying while the server is still starting (socket file
  /// absent or not yet listening) until `timeout_seconds` passes. Throws
  /// std::runtime_error when it never accepts.
  Connection(const std::string& path, double timeout_seconds);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes every byte; false when the peer is gone.
  [[nodiscard]] bool write_all(std::string_view data);

  enum class Read { Line, Timeout, Closed };
  /// Next response line (without the newline) into `line`.
  [[nodiscard]] Read read_line(std::string& line, int timeout_ms);

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< bytes of buffer_ already returned
};

}  // namespace utilrisk::perfbench
