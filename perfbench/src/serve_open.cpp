// serve_open_journal: the journalled single-tenant server, open loop.
//
//  1. Prep (untimed): an in-process AdmissionEngine writes a journal
//     history of kPrepRequests decisions of the seeded SDSC stream.
//  2. Set-up, kSetupTrials times: spawn `utilrisk serve --policy Libra
//     --journal DIR --fsync batch`, which recovers the history; time
//     spawn -> first answered decision. All but the last server are
//     stopped again; the last one is measured.
//  3. A warm-up at the light rate, then kRounds rounds of: a light-rate
//     trial, a heavy-rate trial (each request timed from its due
//     instant) and a capacity trial (a fixed number of requests kept
//     kCapacityWindow in flight, timed). Each metric is the median over
//     the rounds, so a slow spell of the machine moves one sample of it.
//     Every step of the rounds sends a fixed number of requests, so the
//     state the server holds after them does not depend on its speed.
//  4. The rate ladder, ascending, last (it ends wherever the server
//     falls behind, so it would otherwise move what follows it):
//     kLadderTrials short trials per rate; a rate holds when most of its
//     trials pass the ladder rule, and the ladder ends at the first rate
//     that does not. max_rate_rps is reported, not gated: one fsync or
//     scheduling stall of a few ms fails a ladder trial, so it does not
//     repeat on a shared machine.
//
// No request fails on a healthy server: the open-loop sender never has
// more than kInFlightLimit (stats.hpp) unanswered and the capacity window
// is as large, both half the server's queue, so nothing is refused
// `busy`; overload shows as lateness instead.
//
// Checks: every recovery banner reports the replayed count and the digest
// the client holds for everything decided so far; the client's digest
// over every decision equals the server's drain digest.
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>

#include "open_loop.hpp"
#include "process.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace utilrisk::perfbench {

namespace {

constexpr std::size_t kPrepRequests = 50000;
constexpr int kSetupTrials = 3;
constexpr int kRounds = 8;
/// Shares of --seconds: the warm-up, each fixed-rate trial and each
/// ladder trial.
constexpr double kWarmupShare = 0.05;
constexpr double kFixedShare = 0.025;
constexpr double kLadderShare = 0.01;
constexpr int kLadderTrials = 3;
/// Requests kept in flight by the capacity trials.
constexpr std::size_t kCapacityWindow = kInFlightLimit;
/// Requests of one capacity trial, per second of --seconds: about 0.03 of
/// it at 40k decisions per second.
constexpr double kCapacityRequestsPerSecond = 1200;

std::vector<std::string> open_server_args(const std::string& socket,
                                          const std::string& journal) {
  return serve_args(socket, {"--policy", "Libra", "--journal", journal,
                             "--fsync", "batch"});
}

std::string percent(double share) {
  std::ostringstream out;
  out.precision(4);
  out << share * 100.0 << "%";
  return out.str();
}

}  // namespace

Outcome run_serve_open_journal(const Options& options) {
  Outcome outcome;
  WorkDir work(kWorkDir);
  const std::string journal = work.path("journal");
  const std::string socket = work.path("open.sock");

  // Enough requests for every step the run can take, sent in order, so
  // virtual time only moves forward.
  const auto capacity_requests = static_cast<std::size_t>(
      kCapacityRequestsPerSecond * options.seconds);
  double step_requests =
      kLightRate * kWarmupShare * options.seconds +
      kRounds * ((kLightRate + kHeavyRate) * kFixedShare * options.seconds +
                 static_cast<double>(capacity_requests));
  for (double rate : kLadderRates) {
    step_requests += kLadderTrials * rate * kLadderShare * options.seconds;
  }
  serve::LoadgenConfig generator;
  generator.seed = options.seed;
  generator.requests = kPrepRequests + kSetupTrials +
                       static_cast<std::size_t>(step_requests) + 1;
  const std::vector<serve::Request> stream =
      serve::make_request_stream(generator);

  // 1. Prep: the journalled history the server will recover.
  verify::UnorderedDigest client_digest;
  {
    serve::EngineConfig config;
    config.policy = policy::PolicyKind::Libra;
    config.journal_dir = journal;
    config.fsync = serve::FsyncPolicy::None;
    serve::AdmissionEngine engine(config);
    engine.start();
    Tally prep;
    for (std::size_t i = 0; i < kPrepRequests; ++i) {
      while (!engine.submit(stream[i], [&](const serve::Response& response) {
        tally_response(response, prep, client_digest);
      })) {
        std::this_thread::yield();
      }
    }
    const serve::EngineStats stats = engine.drain();
    outcome.check(prep.decided == kPrepRequests &&
                      stats.digest.value() == client_digest.value(),
                  "serve_open_journal: prep engine digest mismatch");
  }

  // 2. Set-up trials over the journal.
  std::size_t next = kPrepRequests;
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Connection> connection;
  Tally total;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    const std::int64_t spawned = now_ns();
    server = std::make_unique<ServerProcess>(
        options.utilrisk, open_server_args(socket, journal));
    const auto banner = server->wait_for("[recovered", 120.0);
    std::uint64_t replayed = 0;
    std::string banner_digest;
    outcome.check(banner && parse_recovery_banner(*banner, replayed,
                                                  banner_digest),
                  "serve_open_journal: no recovery banner");
    outcome.check(replayed == next,
                  "serve_open_journal: recovery replayed " +
                      std::to_string(replayed) + " of " +
                      std::to_string(next) + " journalled requests");
    outcome.check(banner_digest == verify::to_hex(client_digest.value()),
                  "serve_open_journal: recovered digest " + banner_digest +
                      " != client digest " +
                      verify::to_hex(client_digest.value()));
    connection = std::make_unique<Connection>(socket, 120.0);
    serve::Response response;
    const double rtt = round_trip(*connection, stream[next++], response);
    setup_s.push_back(static_cast<double>(now_ns() - spawned) / 1e9);
    ++total.sent;
    outcome.check(rtt >= 0.0 && tally_response(response, total, client_digest),
                  "serve_open_journal: set-up probe got no decision");
    if (trial + 1 < kSetupTrials) {
      connection.reset();
      const auto summary = server->stop();
      outcome.check(summary.count("digest") != 0 &&
                        summary.at("digest") ==
                            verify::to_hex(client_digest.value()),
                    "serve_open_journal: set-up server digest mismatch");
      server.reset();
    }
  }
  if (!outcome.correct()) return outcome;

  // 3. Warm-up and the rounds, 4. the ladder.
  const pid_t pid = server->pid();
  std::vector<std::pair<double, double>> rss_points;
  double decided_so_far = 0.0;
  std::vector<double> lag_ms;
  const auto run_step = [&](double rate, double seconds) {
    StepStats step = run_open_step(*connection, stream, next, rate, seconds,
                                   client_digest);
    decided_so_far += static_cast<double>(step.tally.decided);
    rss_points.emplace_back(decided_so_far, proc_status_bytes(pid, "VmRSS"));
    lag_ms.insert(lag_ms.end(), step.lag_ms.begin(), step.lag_ms.end());
    return step;
  };
  total.add(run_step(kLightRate, kWarmupShare * options.seconds).tally);
  std::vector<StepStats> light;
  std::vector<StepStats> heavy;
  std::vector<double> capacity_rps;
  std::vector<double> capacity_p50_ms;
  std::uint64_t capacity_decided = 0;
  for (int round = 0; round < kRounds; ++round) {
    light.push_back(run_step(kLightRate, kFixedShare * options.seconds));
    heavy.push_back(run_step(kHeavyRate, kFixedShare * options.seconds));
    total.add(light.back().tally);
    total.add(heavy.back().tally);
    const WindowStats capacity =
        run_window_step(*connection, stream, next, kCapacityWindow,
                        capacity_requests, client_digest);
    total.add(capacity.tally);
    decided_so_far += static_cast<double>(capacity.tally.decided);
    capacity_decided += capacity.tally.decided;
    capacity_rps.push_back(
        capacity.seconds > 0.0
            ? static_cast<double>(capacity.tally.decided) / capacity.seconds
            : 0.0);
    capacity_p50_ms.push_back(median(capacity.latency_ms));
  }
  const double peak_rss = proc_status_bytes(pid, "VmHWM");

  std::vector<LadderStep> steps;
  std::ostringstream ladder_log;
  for (double rate : kLadderRates) {
    int passed = 0;
    ladder_log << (steps.empty() ? "" : " ") << rate << ":";
    for (int trial = 0; trial < kLadderTrials; ++trial) {
      const StepStats step = run_step(rate, kLadderShare * options.seconds);
      steps.push_back(step.step);
      total.add(step.tally);
      passed += step_passes(step.step) ? 1 : 0;
      ladder_log << (trial == 0 ? "" : "/")
                 << percent(step.step.sent == 0
                                ? 0.0
                                : static_cast<double>(step.step.on_time) /
                                      static_cast<double>(step.step.sent));
    }
    if (2 * passed <= kLadderTrials) {
      ladder_log << "(knee)";
      break;
    }
  }
  const double max_rate = max_sustained_rate(steps);

  connection.reset();
  auto summary = server->stop();
  server.reset();
  const std::string server_digest =
      summary.count("digest") != 0 ? summary.at("digest") : "";
  outcome.check(server_digest == verify::to_hex(client_digest.value()),
                "serve_open_journal: server digest " + server_digest +
                    " != client digest " +
                    verify::to_hex(client_digest.value()));

  outcome.attempted += total.sent;
  outcome.failed = total.misses();

  // Per-trial statistics, then the median over the trials.
  const auto per_trial = [](const std::vector<StepStats>& trials,
                            double q, std::size_t& samples) {
    std::vector<double> values;
    samples = 0;
    for (const StepStats& trial : trials) {
      values.push_back(q == 0.5 ? median(trial.latency_ms)
                                : tail_percentile(trial.latency_ms, q).value);
      samples += trial.latency_ms.size();
    }
    return median(values);
  };
  std::size_t light_n = 0;
  std::size_t heavy_n = 0;
  const double p50_lo = per_trial(light, 0.5, light_n);
  const double p99_lo = per_trial(light, 0.99, light_n);
  const double p50_hi = per_trial(heavy, 0.5, heavy_n);
  const double p99_hi = per_trial(heavy, 0.99, heavy_n);
  const Tail lag_tail = tail_percentile(lag_ms);
  const double fail_ratio =
      total.sent == 0 ? 0.0
                      : static_cast<double>(total.misses()) /
                            static_cast<double>(total.sent);
  const std::string trials_note =
      "median of " + std::to_string(kRounds) + " trials at ";

  outcome.end_to_end.push_back(
      {"setup_s", median(setup_s), "s", setup_s.size(),
       "spawn -> first decision, incl. journal recovery"});
  outcome.end_to_end.push_back(
      {"peak_rss_mib", mib(peak_rss), "MiB", 1,
       "server VmHWM after the rounds"});
  const std::string capacity_note =
      "capacity_rps: decisions per second with " +
      std::to_string(kCapacityWindow) + " requests in flight, median of " +
      std::to_string(kRounds) + " trials";
  outcome.end_to_end.push_back({"throughput_per_s", median(capacity_rps),
                                "1/s", capacity_decided, capacity_note});
  outcome.end_to_end.push_back(
      {"p50_ms", median(capacity_p50_ms), "ms", capacity_decided,
       "capacity_p50_ms: send -> decision with " +
           std::to_string(kCapacityWindow) + " in flight, median of " +
           std::to_string(kRounds) + " trials' p50"});

  const std::string light_rate = std::to_string(int(kLightRate)) + " rps";
  const std::string heavy_rate = std::to_string(int(kHeavyRate)) + " rps";
  outcome.details.push_back(
      {"setup_s", median(setup_s), "s", setup_s.size(), ""});
  outcome.details.push_back({"peak_rss_mib", mib(peak_rss), "MiB", 1, ""});
  outcome.details.push_back(
      {"fail_ratio", fail_ratio, "ratio", total.sent,
       "(busy+shed+error+dropped)/sent"});
  outcome.details.push_back(
      {"p50_ms.lo", p50_lo, "ms", light_n, trials_note + light_rate});
  outcome.details.push_back(
      {"p99_ms.lo", p99_lo, "ms", light_n, trials_note + light_rate});
  outcome.details.push_back(
      {"p50_ms.hi", p50_hi, "ms", heavy_n, trials_note + heavy_rate});
  outcome.details.push_back(
      {"p99_ms.hi", p99_hi, "ms", heavy_n, trials_note + heavy_rate});
  outcome.details.push_back(
      {"capacity_rps", median(capacity_rps), "1/s", capacity_decided,
       std::to_string(kCapacityWindow) + " in flight, median of " +
           std::to_string(kRounds) + " trials"});
  outcome.details.push_back(
      {"capacity_p50_ms", median(capacity_p50_ms), "ms", capacity_decided,
       "send -> decision, median of " + std::to_string(kRounds) +
           " trials' p50"});
  outcome.details.push_back(
      {"max_rate_rps", max_rate, "1/s", steps.size(),
       "most trials >= 99% decided within 10 ms of due"});
  outcome.details.push_back(
      {"gen.lag_p99_ms", lag_tail.value, "ms", lag_tail.samples,
       "generator lateness"});
  outcome.details.push_back(
      {"server.rss_bytes_per_request", slope(rss_points), "B",
       rss_points.size(), "slope of server VmRSS"});
  outcome.details.push_back(
      {"server.busy", std::atof(summary["busy"].c_str()), "count", 1,
       "server drain summary"});
  const auto per_round = [](const std::vector<double>& values) {
    std::ostringstream text;
    text.precision(4);
    for (std::size_t i = 0; i < values.size(); ++i) {
      text << (i == 0 ? "" : " ") << values[i];
    }
    return text.str();
  };
  std::vector<double> light_p50;
  for (const StepStats& trial : light) {
    light_p50.push_back(median(trial.latency_ms));
  }
  std::vector<double> heavy_p50;
  for (const StepStats& trial : heavy) {
    heavy_p50.push_back(median(trial.latency_ms));
  }
  outcome.facts.emplace_back("p50_ms.lo per round", per_round(light_p50));
  outcome.facts.emplace_back("p50_ms.hi per round", per_round(heavy_p50));
  outcome.facts.emplace_back("capacity_rps per round",
                             per_round(capacity_rps));
  outcome.facts.emplace_back("capacity_p50_ms per round",
                             per_round(capacity_p50_ms));
  outcome.facts.emplace_back("ladder_on_time", ladder_log.str());
  outcome.facts.emplace_back("journal", summary["journal"]);
  outcome.facts.emplace_back("server_digest", server_digest);
  return outcome;
}

}  // namespace utilrisk::perfbench
