// Open- and closed-loop request senders over one Connection.
//
// Open loop: requests are due on a fixed schedule (rate per second) and
// go out when due, whatever the server is doing; each request is timed
// from its *due* instant, so a stall that delays later sends shows up in
// their latency instead of being hidden (no coordinated omission). The
// sender records how late it ran (generator lag). Only decided requests
// (accepted/rejected) are latency samples; busy, shed, error and dropped
// answers are misses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "client.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "verify/digest.hpp"

namespace utilrisk::perfbench {

/// Latency limit of the ladder rule: a request decided later than this
/// after its due instant is a miss.
inline constexpr double kLatencyLimitMs = 10.0;

/// The two fixed open-loop rates (requests per second): light, where each
/// engine tick fsyncs alone, and heavy, where group commit amortises.
inline constexpr double kLightRate = 5000;
inline constexpr double kHeavyRate = 30000;
/// The rate ladder max_rate_rps climbs.
inline constexpr double kLadderRates[] = {10000, 20000, 30000, 35000,
                                          40000, 45000, 50000, 55000,
                                          60000, 70000, 80000};

/// Answer tallies of a batch of requests.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t decided = 0;  ///< accepted + rejected
  std::uint64_t busy = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t dropped = 0;  ///< sent, never answered

  [[nodiscard]] std::uint64_t misses() const {
    return busy + shed + errors + dropped;
  }
  void add(const Tally& other);
};

struct StepStats {
  LadderStep step;
  Tally tally;
  std::vector<double> latency_ms;  ///< decided requests, from due instant
  std::vector<double> lag_ms;      ///< per request: send time - due time
};

/// Sends `stream[next, next + rate * seconds)` open-loop at `rate` and
/// waits for every answer (or `idle_timeout` of silence). Advances
/// `next` past what it sent. Decided answers fold into `digest`.
[[nodiscard]] StepStats run_open_step(Connection& connection,
                                      const std::vector<serve::Request>& stream,
                                      std::size_t& next, double rate,
                                      double seconds,
                                      verify::UnorderedDigest& digest,
                                      double idle_timeout = 10.0);

struct WindowStats {
  Tally tally;
  double seconds = 0.0;            ///< first send -> last answer
  std::vector<double> latency_ms;  ///< decided requests, send -> answer
};

/// Saturation: sends the next `requests` of the stream keeping `window`
/// in flight (fewer than the server's queue holds, so nothing is
/// refused) and times them; decided / seconds is the server's capacity.
/// A fixed request count, not a fixed time, so the state the server is
/// left with does not depend on its speed. Advances `next`.
[[nodiscard]] WindowStats run_window_step(
    Connection& connection, const std::vector<serve::Request>& stream,
    std::size_t& next, std::size_t window, std::size_t requests,
    verify::UnorderedDigest& digest, double idle_timeout = 10.0);

/// One closed-loop round trip: sends `request`, reads its answer into
/// `response`; returns the round-trip milliseconds, or a negative value
/// when the connection failed.
[[nodiscard]] double round_trip(Connection& connection,
                                const serve::Request& request,
                                serve::Response& response,
                                double timeout_seconds = 30.0);

/// Folds a decided answer into `digest` (as the server does) and counts
/// it; returns true for a decision.
bool tally_response(const serve::Response& response, Tally& tally,
                    verify::UnorderedDigest& digest);

}  // namespace utilrisk::perfbench
