#include "open_loop.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include "trace.hpp"

namespace utilrisk::perfbench {

namespace {

/// The sender gives up on a step whose lateness runs away; the step then
/// fails the ladder rule and the ladder ends.
constexpr std::int64_t kAbortLagNs = 500'000'000;
/// Sends at most this many due requests per write.
constexpr std::size_t kMaxWriteBatch = 256;

/// Ends a reader thread on every exit path, exceptions included: marks
/// the sender done and joins (the reader returns once every answer came
/// in or the connection went idle).
class ReaderJoin {
 public:
  ReaderJoin(std::thread& reader, std::atomic<bool>& sender_done)
      : reader_(reader), sender_done_(sender_done) {}
  ~ReaderJoin() { join(); }
  ReaderJoin(const ReaderJoin&) = delete;
  ReaderJoin& operator=(const ReaderJoin&) = delete;

  void join() {
    sender_done_.store(true, std::memory_order_release);
    if (reader_.joinable()) reader_.join();
  }

 private:
  std::thread& reader_;
  std::atomic<bool>& sender_done_;
};

}  // namespace

void Tally::add(const Tally& other) {
  sent += other.sent;
  decided += other.decided;
  busy += other.busy;
  shed += other.shed;
  errors += other.errors;
  dropped += other.dropped;
}

bool tally_response(const serve::Response& response, Tally& tally,
                    verify::UnorderedDigest& digest) {
  switch (response.status) {
    case serve::Status::Accepted:
    case serve::Status::Rejected:
      ++tally.decided;
      digest.add(serve::decision_hash(response));
      return true;
    case serve::Status::Busy:
      ++tally.busy;
      return false;
    case serve::Status::Shed:
      ++tally.shed;
      return false;
    case serve::Status::Error:
      ++tally.errors;
      return false;
    case serve::Status::Advice:
      return false;
  }
  return false;
}

StepStats run_open_step(Connection& connection,
                        const std::vector<serve::Request>& stream,
                        std::size_t& next, double rate, double seconds,
                        verify::UnorderedDigest& digest,
                        double idle_timeout) {
  StepStats out;
  out.step.rate = rate;
  const std::size_t begin = next;
  const std::size_t count = std::min<std::size_t>(
      stream.size() - begin,
      static_cast<std::size_t>(std::llround(rate * seconds)));
  if (count == 0) return out;
  const std::uint64_t first_id = stream[begin].id;

  // The schedule is fixed before the first send: request k is due at
  // start + k / rate.
  const std::int64_t start = now_ns() + 2'000'000;
  std::vector<std::int64_t> due(count);
  for (std::size_t k = 0; k < count; ++k) {
    due[k] = start + static_cast<std::int64_t>(static_cast<double>(k) *
                                               1e9 / rate);
  }

  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> sender_done{false};
  Tally reader_tally;
  verify::UnorderedDigest reader_digest;
  std::size_t on_time = 0;

  std::thread reader([&] {
    // Nothing may escape a thread: a failure becomes an error answer,
    // which fails the run's digest check.
    try {
      std::string line;
      std::int64_t last_activity = now_ns();
      for (;;) {
        if (sender_done.load(std::memory_order_acquire) &&
            answered.load(std::memory_order_relaxed) ==
                sent.load(std::memory_order_acquire)) {
          break;
        }
        const Connection::Read read = connection.read_line(line, 50);
        if (read == Connection::Read::Closed) break;
        const std::int64_t now = now_ns();
        if (read == Connection::Read::Timeout) {
          if (static_cast<double>(now - last_activity) / 1e9 > idle_timeout) {
            break;
          }
          continue;
        }
        last_activity = now;
        answered.fetch_add(1, std::memory_order_relaxed);
        serve::Response response;
        try {
          response = serve::parse_response(line);
        } catch (const serve::ProtocolError&) {
          ++reader_tally.errors;
          continue;
        }
        if (!tally_response(response, reader_tally, reader_digest)) continue;
        const std::uint64_t k = response.id - first_id;
        if (response.id < first_id || k >= count) continue;
        const double latency = static_cast<double>(now - due[k]) / 1e6;
        out.latency_ms.push_back(latency);
        if (latency <= kLatencyLimitMs) ++on_time;
      }
    } catch (const std::exception&) {
      ++reader_tally.errors;
    }
  });

  ReaderJoin reader_join(reader, sender_done);
  std::string buffer;
  std::size_t k = 0;
  out.lag_ms.reserve(count);
  while (k < count) {
    const std::int64_t now = now_ns();
    if (now < due[k]) {
      // Sleep most of the gap, spin the last stretch.
      if (due[k] - now > 200'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due[k] - now - 100'000));
      }
      continue;
    }
    // Never more than kInFlightLimit unanswered: past it the sender holds
    // due requests back (they keep their due instants, so the wait shows
    // in their latency) instead of overfilling the server's queue, which
    // would answer `busy`.
    const std::uint64_t unanswered =
        k - answered.load(std::memory_order_acquire);
    if (unanswered >= kInFlightLimit) {
      out.step.max_in_flight = kInFlightLimit;
      if (now - due[k] > kAbortLagNs) {
        out.step.aborted = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    const std::size_t room = std::min<std::size_t>(
        kMaxWriteBatch, kInFlightLimit - static_cast<std::size_t>(unanswered));
    buffer.clear();
    const std::size_t first = k;
    while (k < count && due[k] <= now && k - first < room) {
      serve::encode_request_to(buffer, stream[begin + k]);
      buffer.push_back('\n');
      ++k;
    }
    if (!connection.write_all(buffer)) {
      k = first;
      break;
    }
    const std::int64_t written = now_ns();
    for (std::size_t j = first; j < k; ++j) {
      out.lag_ms.push_back(static_cast<double>(written - due[j]) / 1e6);
    }
    sent.store(k, std::memory_order_release);
    const std::uint64_t in_flight =
        k - answered.load(std::memory_order_relaxed);
    out.step.max_in_flight =
        std::max<std::size_t>(out.step.max_in_flight, in_flight);
    if (written - due[k - 1] > kAbortLagNs) {
      out.step.aborted = true;
      break;
    }
  }
  reader_join.join();

  next = begin + k;
  out.tally = reader_tally;
  out.tally.sent = k;
  out.tally.dropped = k - std::min<std::uint64_t>(k, answered.load());
  out.step.sent = k;
  out.step.on_time = on_time;
  out.step.lag_p99_ms = quantile(out.lag_ms, 0.99);
  digest.merge(reader_digest);
  return out;
}

WindowStats run_window_step(Connection& connection,
                            const std::vector<serve::Request>& stream,
                            std::size_t& next, std::size_t window,
                            std::size_t requests,
                            verify::UnorderedDigest& digest,
                            double idle_timeout) {
  WindowStats out;
  const std::size_t begin = next;
  const std::size_t end = std::min(stream.size(), next + requests);
  if (begin == end) return out;
  const std::uint64_t first_id = stream[begin].id;
  // Written by the sender before a request goes out, read by the reader
  // once its answer is in.
  std::vector<std::atomic<std::int64_t>> send_ns(end - begin);
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> sender_done{false};
  std::atomic<std::int64_t> last_answer{0};
  Tally tally;
  verify::UnorderedDigest reader_digest;
  std::thread reader([&] {
    // Nothing may escape a thread: a failure becomes an error answer,
    // which fails the run's digest check.
    try {
      std::string line;
      std::int64_t last_activity = now_ns();
      for (;;) {
        if (sender_done.load(std::memory_order_acquire) &&
            answered.load(std::memory_order_relaxed) ==
                sent.load(std::memory_order_acquire)) {
          break;
        }
        const Connection::Read read = connection.read_line(line, 50);
        if (read == Connection::Read::Closed) break;
        if (read == Connection::Read::Timeout) {
          if (static_cast<double>(now_ns() - last_activity) / 1e9 >
              idle_timeout) {
            break;
          }
          continue;
        }
        last_activity = now_ns();
        last_answer.store(last_activity, std::memory_order_relaxed);
        try {
          const serve::Response response = serve::parse_response(line);
          const std::uint64_t k = response.id - first_id;
          if (tally_response(response, tally, reader_digest) &&
              response.id >= first_id && k < send_ns.size()) {
            out.latency_ms.push_back(
                static_cast<double>(last_activity -
                                    send_ns[k].load(
                                        std::memory_order_relaxed)) /
                1e6);
          }
        } catch (const serve::ProtocolError&) {
          ++tally.errors;
        }
        answered.fetch_add(1, std::memory_order_release);
      }
    } catch (const std::exception&) {
      ++tally.errors;
    }
  });

  ReaderJoin reader_join(reader, sender_done);
  const std::int64_t start = now_ns();
  std::string buffer;
  std::uint64_t count = 0;
  while (next < end) {
    const std::uint64_t in_flight =
        count - answered.load(std::memory_order_acquire);
    if (in_flight + kMaxWriteBatch > window) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    buffer.clear();
    const std::size_t batch =
        std::min<std::size_t>(kMaxWriteBatch, end - next);
    for (std::size_t i = 0; i < batch; ++i) {
      serve::encode_request_to(buffer, stream[next + i]);
      buffer.push_back('\n');
    }
    const std::int64_t now = now_ns();
    for (std::size_t i = 0; i < batch; ++i) {
      send_ns[next + i - begin].store(now, std::memory_order_relaxed);
    }
    if (!connection.write_all(buffer)) break;
    next += batch;
    count += batch;
    sent.store(count, std::memory_order_release);
  }
  reader_join.join();
  out.seconds =
      static_cast<double>(std::max<std::int64_t>(last_answer.load(), start) -
                          start) /
      1e9;
  out.tally = tally;
  out.tally.sent = count;
  out.tally.dropped = count - std::min<std::uint64_t>(count, answered.load());
  digest.merge(reader_digest);
  return out;
}

double round_trip(Connection& connection, const serve::Request& request,
                  serve::Response& response, double timeout_seconds) {
  std::string line = serve::encode_request(request);
  line.push_back('\n');
  const std::int64_t start = now_ns();
  if (!connection.write_all(line)) return -1.0;
  const int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
  for (;;) {
    if (connection.read_line(line, timeout_ms) != Connection::Read::Line) {
      return -1.0;
    }
    try {
      response = serve::parse_response(line);
    } catch (const serve::ProtocolError&) {
      return -1.0;
    }
    if (response.id == request.id) {
      return static_cast<double>(now_ns() - start) / 1e6;
    }
  }
}

}  // namespace utilrisk::perfbench
