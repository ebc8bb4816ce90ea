// In-memory span recorder for the traced (--trace 1) pass.
//
// The benchmark records spans from its own code around each call into a
// layer's public API (the program itself carries no spans). Spans stay in
// memory and are reduced at the end: self time per layer
// (stats.hpp self_times_ns) and the traced-minus-untraced overhead. A
// disabled tracer records nothing and costs one branch per call site, so
// the probes run identical code in both modes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace utilrisk::perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its handle (-1 when disabled). `name` must
  /// be a string literal ("<layer>.<call>"). Thread-safe: a request span
  /// may open on the client thread and close on the engine thread.
  std::int64_t begin(const char* name, std::int64_t parent = -1,
                     std::uint64_t request = 0);
  void end(std::int64_t handle);

  /// Every recorded span, in opening order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Summed self time per layer, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent = -1,
             std::uint64_t request = 0)
      : tracer_(tracer), handle_(tracer.begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.end(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t handle() const { return handle_; }

 private:
  Tracer& tracer_;
  std::int64_t handle_;
};

}  // namespace utilrisk::perfbench
