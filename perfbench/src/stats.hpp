// Statistics the benchmark reports: medians, tail percentiles with their
// sample counts, the open-loop rate-ladder rule, the RSS-growth slope and
// the self-time arithmetic over trace spans. Pure functions, unit-tested
// in perfbench/tests/stats_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace utilrisk::perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile: the value at rank ceil(q * n) (1-based) of the
/// sorted samples; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// A tail percentile and the evidence behind it.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;     ///< the percentile actually reported
  std::size_t samples = 0;   ///< sample count
  std::size_t beyond = 0;    ///< samples strictly above the reported rank
};

/// The highest percentile, at most `wanted`, that still has at least
/// `min_beyond` samples beyond it (nearest rank). With n >= 1000 samples
/// that is p99; with fewer it falls back towards the median and says so
/// through Tail::quantile. Never reports below the median.
[[nodiscard]] Tail tail_percentile(std::vector<double> values,
                                   double wanted = 0.99,
                                   std::size_t min_beyond = 10);

/// "p99", "p98.36": the percentile a Tail reports, for labels.
[[nodiscard]] std::string percentile_label(const Tail& tail);

/// One open-loop step at a fixed send rate.
struct LadderStep {
  double rate = 0.0;              ///< requests per second
  std::size_t sent = 0;
  /// Requests decided (accepted/rejected) within the latency limit of
  /// their due instant. Busy, shed, error and dropped requests never
  /// count here: a failed request is a miss.
  std::size_t on_time = 0;
  double lag_p99_ms = 0.0;        ///< generator lateness, p99
  std::size_t max_in_flight = 0;  ///< sent minus answered, peak
  bool aborted = false;           ///< the sender gave up (lag runaway)
};

/// When a step counts as sustained: at least this share of sent requests
/// decided on time, generator lag p99 within its bound, and the in-flight
/// count never reaching kInFlightLimit.
inline constexpr double kOnTimeShare = 0.99;
inline constexpr double kLagLimitMs = 10.0;
/// The open-loop sender never has more requests unanswered than this:
/// half the server's default queue (1024), so no request is refused
/// `busy`. A step that reaches it had a backlog.
inline constexpr std::size_t kInFlightLimit = 512;

[[nodiscard]] bool step_passes(const LadderStep& step);

/// The highest rate R such that every rate <= R held, where a rate holds
/// when more than half of the steps run at it passed; 0 when the lowest
/// rate did not hold.
[[nodiscard]] double max_sustained_rate(const std::vector<LadderStep>& steps);

/// Least-squares slope dy/dx over (x, y) points; 0 with fewer than two
/// distinct x values.
[[nodiscard]] double slope(const std::vector<std::pair<double, double>>& xy);

/// One recorded span (trace.hpp). Times are steady-clock nanoseconds.
struct Span {
  const char* name = "";        ///< "<layer>.<call>", a string literal
  std::int64_t parent = -1;     ///< index of the parent span, -1 = root
  std::uint64_t request = 0;    ///< spans of one request/cell share it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string layer_of(const char* name);

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
/// Overlapping children are not double-counted; a span with no children
/// keeps its whole duration. Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

}  // namespace utilrisk::perfbench
