// serve_tenants_closed: the sharded multi-tenant server, closed loop.
//
// `utilrisk serve --shards 2 --policy EDF-BF`, no journal. The seeded
// stream is `zipf:tenants=64,theta=0.9`; it is split over 2 closed-loop
// connections by the router's own hash of the routing key (so each
// tenant's requests stay in order on one connection), and after every
// kAdviseEvery-th submit a connection asks a read-only `advise` query
// for that tenant. Each connection keeps kWindow requests outstanding: a
// new one goes out only when an answer came back (a closed loop of fixed
// concurrency). With one request outstanding, every request would wait
// for the machine to wake an idle processor several times, and on a
// shared host that wake-up time, not the server, would be measured.
//
// Set-up is spawn -> first answered decision, kSetupTrials times (all but
// the last server stopped again). The measured session is a fixed amount
// of work, kRequestsPerSecond requests per second of --seconds; it ends
// when either connection has sent its whole share, so both connections
// are busy for all of it. Checks: every trial decides the probe
// identically; the client digest equals the server's merged drain
// digest; and an in-process ShardedEngine with one shard and a different
// batch size, fed the same submits in another interleaving, reaches that
// digest too (shard, batch and interleaving invariance).
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>

#include "open_loop.hpp"
#include "process.hpp"
#include "serve/loadgen.hpp"
#include "serve/shard.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace utilrisk::perfbench {

namespace {

constexpr int kSetupTrials = 5;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kAdviseEvery = 256;
/// Requests outstanding per connection: far below a shard's queue, so
/// nothing is refused `busy`.
constexpr std::size_t kWindow = 32;
/// Stream length per second of --seconds: about 0.6 of it at 60k
/// decided submits per second.
constexpr double kRequestsPerSecond = 36000;
constexpr std::uint64_t kAdviseIdBase = std::uint64_t{1} << 40;
/// peak_rss_mib is the server's VmHWM once this many submits were
/// decided, so it does not move with how far the run got.
constexpr std::uint64_t kRssAtDecided = 150000;
constexpr int kReadTimeoutMs = 30000;

const char* const kTenantWorkload = "zipf:tenants=64,theta=0.9";

/// What one closed-loop connection did.
struct ConnectionRun {
  std::size_t submitted = 0;  ///< prefix of its partition sent
  Tally tally;
  verify::UnorderedDigest digest;
  std::vector<double> latency_ms;
  std::vector<double> advise_ms;
  std::uint64_t advise_failed = 0;
};

/// Sends `partition[first..]` keeping kWindow requests outstanding, until
/// the partition is sent or `stop` is set (then it still reads every
/// outstanding answer). Sets `stop` when its partition runs out.
/// `send_ns` is indexed by stream position; connections touch disjoint
/// positions.
void run_connection(Connection& connection,
                    const std::vector<serve::Request>& stream,
                    const std::vector<std::size_t>& partition,
                    std::size_t first, std::uint64_t advise_id,
                    std::vector<std::int64_t>& send_ns, ConnectionRun& run,
                    std::atomic<bool>& stop,
                    std::atomic<std::uint64_t>& decided) {
  const std::uint64_t first_id = stream.front().id;
  std::unordered_map<std::uint64_t, std::int64_t> advise_sent;
  std::vector<std::size_t> batch;
  std::string buffer;
  std::string line;
  std::size_t next = first;
  std::size_t outstanding = 0;
  for (;;) {
    if (next == partition.size()) stop.store(true);
    buffer.clear();
    batch.clear();
    const std::uint64_t advise_before = advise_id;
    while (outstanding < kWindow && next < partition.size() &&
           !stop.load(std::memory_order_relaxed)) {
      const serve::Request& request = stream[partition[next++]];
      serve::encode_request_to(buffer, request);
      buffer.push_back('\n');
      batch.push_back(request.id - first_id);
      ++outstanding;
      ++run.tally.sent;
      if (++run.submitted % kAdviseEvery == 0) {
        serve::Request query;
        query.kind = serve::RequestKind::Advise;
        query.id = advise_id++;
        query.tenant = request.tenant;
        serve::encode_request_to(buffer, query);
        buffer.push_back('\n');
        ++outstanding;
      }
    }
    if (!buffer.empty()) {
      const std::int64_t now = now_ns();
      for (std::size_t position : batch) send_ns[position] = now;
      for (std::uint64_t id = advise_before; id < advise_id; ++id) {
        advise_sent[id] = now;
      }
      if (!connection.write_all(buffer)) break;
    }
    if (outstanding == 0) return;
    // One answer, waiting for it, then whatever else already arrived.
    int timeout_ms = kReadTimeoutMs;
    while (outstanding > 0) {
      const Connection::Read read = connection.read_line(line, timeout_ms);
      if (read != Connection::Read::Line) {
        if (timeout_ms == 0 && read == Connection::Read::Timeout) break;
        run.tally.dropped += outstanding;  // fails the digest check
        return;
      }
      timeout_ms = 0;
      --outstanding;
      const std::int64_t now = now_ns();
      serve::Response response;
      try {
        response = serve::parse_response(line);
      } catch (const serve::ProtocolError&) {
        ++run.tally.errors;
        continue;
      }
      if (response.status == serve::Status::Advice) {
        const auto sent = advise_sent.find(response.id);
        if (sent == advise_sent.end()) {
          ++run.advise_failed;
          continue;
        }
        run.advise_ms.push_back(static_cast<double>(now - sent->second) /
                                1e6);
        advise_sent.erase(sent);
        continue;
      }
      if (tally_response(response, run.tally, run.digest)) {
        run.latency_ms.push_back(
            static_cast<double>(now - send_ns[response.id - first_id]) /
            1e6);
        decided.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  run.tally.dropped += outstanding;
}

}  // namespace

Outcome run_serve_tenants_closed(const Options& options) {
  Outcome outcome;
  WorkDir work(kWorkDir);
  const std::string socket = work.path("closed.sock");
  const std::vector<std::string> args =
      serve_args(socket, {"--shards", "2", "--policy", "EDF-BF"});

  serve::LoadgenConfig generator;
  generator.seed = options.seed;
  generator.workload = kTenantWorkload;
  generator.requests =
      static_cast<std::size_t>(kRequestsPerSecond * options.seconds);
  const std::vector<serve::Request> stream =
      serve::make_request_stream(generator);
  const serve::ShardRouter router(kConnections);
  // Indices into the stream, per connection.
  std::vector<std::size_t> partitions[kConnections];
  for (std::size_t i = 0; i < stream.size(); ++i) {
    partitions[router.shard_for(serve::routing_key(stream[i]))].push_back(i);
  }
  outcome.check(!partitions[0].empty() && !partitions[1].empty(),
                "serve_tenants_closed: a connection has no requests");
  if (!outcome.correct()) return outcome;

  // Set-up trials; the probe is partition 0's first request.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Connection> probe_connection;
  serve::Response first_answer;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    const std::int64_t spawned = now_ns();
    server = std::make_unique<ServerProcess>(options.utilrisk, args);
    probe_connection = std::make_unique<Connection>(socket, 120.0);
    serve::Response response;
    const double rtt = round_trip(*probe_connection,
                                  stream[partitions[0][0]], response);
    setup_s.push_back(static_cast<double>(now_ns() - spawned) / 1e9);
    outcome.check(rtt >= 0.0 && (response.status == serve::Status::Accepted ||
                                 response.status == serve::Status::Rejected),
                  "serve_tenants_closed: set-up probe got no decision");
    if (trial == 0) first_answer = response;
    outcome.check(serve::decision_hash(response) ==
                      serve::decision_hash(first_answer),
                  "serve_tenants_closed: a fresh server decided the probe "
                  "differently");
    if (trial + 1 < kSetupTrials) {
      probe_connection.reset();
      verify::UnorderedDigest probe_digest;
      probe_digest.add(serve::decision_hash(response));
      const auto summary = server->stop();
      outcome.check(summary.count("digest") != 0 &&
                        summary.at("digest") ==
                            verify::to_hex(probe_digest.value()),
                    "serve_tenants_closed: set-up server digest mismatch");
      server.reset();
    }
  }
  if (!outcome.correct()) return outcome;

  // The measured session.
  ConnectionRun runs[kConnections];
  runs[0].tally.sent = 1;
  runs[0].tally.decided = 1;
  runs[0].submitted = 1;
  runs[0].digest.add(serve::decision_hash(first_answer));
  Connection second(socket, 30.0);
  Connection* connections[kConnections] = {probe_connection.get(), &second};
  std::atomic<std::uint64_t> decided{1};
  std::atomic<int> running{static_cast<int>(kConnections)};
  const pid_t pid = server->pid();
  double peak_rss = 0.0;
  std::vector<std::int64_t> send_ns(stream.size(), 0);
  std::atomic<bool> stop{false};
  const std::int64_t start = now_ns();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          run_connection(*connections[c], stream, partitions[c],
                         c == 0 ? 1 : 0, kAdviseIdBase * (c + 1), send_ns,
                         runs[c], stop, decided);
        } catch (const std::exception&) {
          ++runs[c].tally.errors;  // fails the digest check below
        }
        stop.store(true);
        running.fetch_sub(1);
      });
    }
    while (running.load() > 0 && peak_rss == 0.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (decided.load(std::memory_order_relaxed) >= kRssAtDecided) {
        peak_rss = proc_status_bytes(pid, "VmHWM");
      }
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  // A server too slow to reach the sample point is measured at the end.
  const bool rss_at_count = peak_rss > 0.0;
  if (!rss_at_count) peak_rss = proc_status_bytes(pid, "VmHWM");
  probe_connection.reset();
  auto summary = server->stop();
  server.reset();

  Tally total;
  verify::UnorderedDigest client_digest;
  std::vector<double> latency_ms;
  std::vector<double> advise_ms;
  std::uint64_t advise_failed = 0;
  for (const ConnectionRun& run : runs) {
    total.add(run.tally);
    client_digest.merge(run.digest);
    latency_ms.insert(latency_ms.end(), run.latency_ms.begin(),
                      run.latency_ms.end());
    advise_ms.insert(advise_ms.end(), run.advise_ms.begin(),
                     run.advise_ms.end());
    advise_failed += run.advise_failed;
  }
  const std::string server_digest =
      summary.count("digest") != 0 ? summary.at("digest") : "";
  outcome.check(server_digest == verify::to_hex(client_digest.value()),
                "serve_tenants_closed: server digest " + server_digest +
                    " != client digest " +
                    verify::to_hex(client_digest.value()));
  outcome.check(advise_failed == 0,
                "serve_tenants_closed: " + std::to_string(advise_failed) +
                    " advise queries unanswered");

  // In-process reference: one shard, another batch size, partitions fed
  // one after the other instead of interleaved.
  {
    serve::ShardedEngineConfig config;
    config.engine.policy = policy::PolicyKind::EdfBf;
    config.engine.max_batch = 7;
    config.shards = 1;
    serve::ShardedEngine reference(config);
    reference.start();
    for (std::size_t c = 0; c < kConnections; ++c) {
      for (std::size_t i = 0; i < runs[c].submitted; ++i) {
        while (!reference.submit(stream[partitions[c][i]],
                                 [](const serve::Response&) {})) {
          std::this_thread::yield();
        }
      }
    }
    const serve::EngineStats stats = reference.drain();
    outcome.check(stats.decision_digest == server_digest,
                  "serve_tenants_closed: in-process one-shard digest " +
                      stats.decision_digest + " != server digest " +
                      server_digest);
  }

  outcome.attempted = total.sent + advise_ms.size() + advise_failed;
  outcome.failed = total.misses() + advise_failed;
  const double closed_rps = static_cast<double>(total.decided) / wall_s;
  const Tail tail = tail_percentile(latency_ms);
  const Tail advise_tail = tail_percentile(advise_ms);
  const double fail_ratio =
      static_cast<double>(total.misses()) / static_cast<double>(total.sent);

  outcome.end_to_end.push_back(
      {"setup_s", median(setup_s), "s", setup_s.size(),
       "spawn -> first decision"});
  const std::string rss_note =
      rss_at_count ? "server VmHWM after " + std::to_string(kRssAtDecided) +
                         " decisions"
                   : "server VmHWM at the end (run too short)";
  outcome.end_to_end.push_back(
      {"peak_rss_mib", mib(peak_rss), "MiB", 1, rss_note});
  outcome.end_to_end.push_back(
      {"throughput_per_s", closed_rps, "1/s", total.decided,
       "closed_rps: decided submits per second"});
  outcome.end_to_end.push_back(
      {"p50_ms", median(latency_ms), "ms", latency_ms.size(),
       "closed-loop submit round trip"});

  outcome.details.push_back(
      {"setup_s", median(setup_s), "s", setup_s.size(), ""});
  outcome.details.push_back({"peak_rss_mib", mib(peak_rss), "MiB", 1, ""});
  outcome.details.push_back(
      {"fail_ratio", fail_ratio, "ratio", total.sent,
       "(busy+shed+error+dropped)/sent"});
  outcome.details.push_back(
      {"closed_rps", closed_rps, "1/s", total.decided,
       std::to_string(kConnections) + " connections x " +
           std::to_string(kWindow) + " outstanding"});
  outcome.details.push_back(
      {"closed_p50_ms", median(latency_ms), "ms", latency_ms.size(), ""});
  outcome.details.push_back(
      {"closed_p99_ms", tail.value, "ms", tail.samples,
        percentile_label(tail)});
  outcome.details.push_back(
      {"advise_p50_ms", median(advise_ms), "ms", advise_ms.size(),
       "one query per " + std::to_string(kAdviseEvery) + " submits"});
  outcome.details.push_back(
      {"advise_tail_ms", advise_tail.value, "ms", advise_tail.samples,
       percentile_label(advise_tail)});
  outcome.facts.emplace_back("shards", summary["shards"]);
  outcome.facts.emplace_back("server_digest", server_digest);
  return outcome;
}

}  // namespace utilrisk::perfbench
