// Serving-path throughput/latency bench for `utilrisk serve`.
//
// Boots an in-process one-shard engine + TCP-loopback server, drives it
// with the seeded closed-loop load generator (the determinism-friendly
// mode: one request in flight, so decisions replay bit-identically), and
// writes <out>/BENCH_serving.json with throughput and p50/p95/p99
// round-trip latency. A second same-seed pass against a fresh engine must
// reproduce the decision digest — the bench fails on any divergence, on
// dropped responses, or on a client/server digest mismatch, so it doubles
// as an end-to-end regression gate for the serving layer.
//
// Two robustness measurements ride along:
//  - journal overhead: the same request stream driven straight into the
//    engine (queue kept full, so ticks batch up to max_batch and the
//    per-tick fsync amortises — closed-loop traffic with one request in
//    flight would fsync per request and measure the disk, not the
//    journal) with the write-ahead journal on (fsync=batch) vs off. The
//    decision digest must be identical in both modes and equal to the
//    closed-loop server digest (batch invariance); the throughput cost is
//    reported as journal.overhead_percent (budget: <= 15%,
//    docs/SERVING.md).
//  - shed rate under 2x overload: an open-loop stream at twice the
//    measured closed-loop throughput with a tight decision budget
//    (`deadline_ms`); the report records what fraction of requests the
//    engine shed instead of deciding late.
//  - online advisor under a mix shift: --advise-auto vs the static
//    default policy over a traffic mix that changes mid-run. Gates: < 5%
//    admission-throughput overhead, bit-identical digests across
//    advise-auto passes, and the advisor's recommendation beating the
//    static default on the mean - lambda * sigma risk-adjusted score.
//
// Honours REPRO_REQUESTS (requests per pass, default 5000) and REPRO_OUT
// (artefact directory, default ./bench_out).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "advise/advisor_engine.hpp"
#include "bench_common.hpp"
#include "core/objectives.hpp"
#include "obs/json.hpp"
#include "policy/factory.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"

namespace {

using namespace utilrisk;

struct Pass {
  serve::LoadgenReport report;
  serve::EngineStats engine;
  serve::JournalStats journal;
};

struct PassOptions {
  std::string journal_dir;  ///< empty = journaling off
  serve::FsyncPolicy fsync = serve::FsyncPolicy::Batch;
  bool open_loop = false;
  double rate = 0.0;         ///< open-loop only
  double deadline_ms = 0.0;  ///< decision budget stamped on requests
  /// Online advisor knobs (default: scheduled evaluations off).
  advise::OnlineAdvisorConfig advisor;
};

Pass run_pass(std::size_t requests, std::uint64_t seed,
              const PassOptions& options = {}) {
  serve::ShardedEngineConfig engine_config;
  engine_config.engine.journal_dir = options.journal_dir;
  engine_config.engine.fsync = options.fsync;
  serve::ShardedEngine engine(engine_config);
  engine.start();

  serve::ServerConfig server_config;
  server_config.tcp_port = 0;  // ephemeral loopback port
  serve::Server server(server_config, engine);
  server.start();

  serve::LoadgenConfig load;
  load.tcp_port = server.bound_port();
  load.requests = requests;
  load.seed = seed;
  load.open_loop = options.open_loop;
  if (options.rate > 0.0) load.rate = options.rate;
  load.deadline_ms = options.deadline_ms;

  Pass pass;
  pass.report = serve::run_loadgen(load);
  pass.engine = server.stop_and_drain();
  pass.journal = engine.journal_stats();
  return pass;
}

struct EnginePass {
  serve::EngineStats stats;
  serve::JournalStats journal;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
};

// Drives the engine directly (no sockets): submissions spin-retry until
// accepted, so the bounded queue stays full and ticks coalesce batches of
// up to max_batch — the traffic shape where batch fsync amortises.
EnginePass run_engine_pass(const std::vector<serve::Request>& stream,
                           const PassOptions& options) {
  serve::EngineConfig config;
  config.journal_dir = options.journal_dir;
  config.fsync = options.fsync;
  config.advisor = options.advisor;
  serve::AdmissionEngine engine(config);
  engine.start();

  const auto start = std::chrono::steady_clock::now();
  for (const serve::Request& request : stream) {
    while (!engine.submit(request, [](const serve::Response&) {})) {
      std::this_thread::yield();
    }
  }
  EnginePass pass;
  pass.stats = engine.drain();
  pass.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  pass.journal = engine.journal_stats();
  pass.throughput_rps =
      pass.wall_seconds > 0.0
          ? static_cast<double>(stream.size()) / pass.wall_seconds
          : 0.0;
  return pass;
}

struct ShardPass {
  std::size_t shards = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  std::string digest;
};

// Drives a sharded engine directly with a multi-tenant stream (same
// spin-submit shape as run_engine_pass): one submitter, N decision
// threads, so aggregate throughput scales with shard count when decision
// work dominates.
ShardPass run_shard_pass(const std::vector<serve::Request>& stream,
                         std::size_t shards) {
  serve::ShardedEngineConfig config;
  config.shards = shards;
  serve::ShardedEngine engine(config);
  engine.start();

  const auto start = std::chrono::steady_clock::now();
  for (const serve::Request& request : stream) {
    while (!engine.submit(request, [](const serve::Response&) {})) {
      std::this_thread::yield();
    }
  }
  const serve::EngineStats stats = engine.drain();
  ShardPass pass;
  pass.shards = shards;
  pass.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  pass.throughput_rps =
      pass.wall_seconds > 0.0
          ? static_cast<double>(stream.size()) / pass.wall_seconds
          : 0.0;
  pass.digest = stats.decision_digest;
  return pass;
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::read_env();
  const std::size_t requests = bench::env_count("REPRO_REQUESTS", 5000);
  constexpr std::uint64_t kSeed = 42;

  std::cout << "serving bench: " << requests
            << " closed-loop requests, seed " << kSeed << "\n";
  run_pass(std::min<std::size_t>(requests, 500), kSeed);  // warm-up

  const Pass first = run_pass(requests, kSeed);
  const Pass second = run_pass(requests, kSeed);

  const serve::LoadgenReport& r = first.report;
  std::cout << "  responses:  " << r.responses << " of " << r.sent
            << " (accepted " << r.accepted << ", rejected " << r.rejected
            << ")\n"
            << "  throughput: " << r.throughput_rps << " responses/s\n"
            << "  latency:    p50 " << r.latency.p50_ms << " ms, p95 "
            << r.latency.p95_ms << " ms, p99 " << r.latency.p99_ms
            << " ms\n"
            << "  digest:     " << r.decision_digest << "\n";

  bool pass = true;
  if (r.dropped != 0 || second.report.dropped != 0) {
    std::cerr << "FAIL: dropped responses (" << r.dropped << ", "
              << second.report.dropped << ")\n";
    pass = false;
  }
  if (r.decision_digest != first.engine.decision_digest) {
    std::cerr << "FAIL: client digest " << r.decision_digest
              << " != server digest " << first.engine.decision_digest
              << "\n";
    pass = false;
  }
  if (r.decision_digest != second.report.decision_digest) {
    std::cerr << "FAIL: same-seed passes diverged: " << r.decision_digest
              << " vs " << second.report.decision_digest << "\n";
    pass = false;
  }

  // --- journal overhead: same stream, batched traffic, journal on/off ----
  serve::LoadgenConfig stream_config;
  stream_config.requests = requests;
  stream_config.seed = kSeed;
  const std::vector<serve::Request> stream =
      serve::make_request_stream(stream_config);

  const std::string journal_dir = env.out_dir + "/bench_journal";
  std::filesystem::remove_all(journal_dir);
  const EnginePass direct_off = run_engine_pass(stream, PassOptions{});
  PassOptions journal_options;
  journal_options.journal_dir = journal_dir;
  journal_options.fsync = serve::FsyncPolicy::Batch;
  const EnginePass direct_on = run_engine_pass(stream, journal_options);
  const double journal_rps = direct_on.throughput_rps;
  const double overhead_percent =
      direct_off.throughput_rps > 0.0
          ? std::max(0.0, (direct_off.throughput_rps - journal_rps) /
                              direct_off.throughput_rps * 100.0)
          : 0.0;
  std::cout << "  journal:    off " << direct_off.throughput_rps
            << " dec/s, on " << journal_rps << " dec/s ("
            << overhead_percent << "% overhead, "
            << direct_on.journal.ticks << " ticks, "
            << direct_on.journal.fsyncs << " fsyncs, "
            << direct_on.journal.bytes << " bytes)\n";
  if (direct_on.stats.decision_digest != direct_off.stats.decision_digest) {
    std::cerr << "FAIL: journaling changed the decision digest: "
              << direct_on.stats.decision_digest << " vs "
              << direct_off.stats.decision_digest << "\n";
    pass = false;
  }
  if (direct_off.stats.decision_digest != r.decision_digest) {
    std::cerr << "FAIL: batch invariance broke: direct digest "
              << direct_off.stats.decision_digest << " != closed-loop "
              << r.decision_digest << "\n";
    pass = false;
  }
  std::filesystem::remove_all(journal_dir);

  // --- shed rate under 2x overload ---------------------------------------
  // Open loop at twice the engine's measured decision capacity (the
  // direct-drive pass above — closed-loop throughput is latency-bound and
  // badly underestimates it) with a 10 ms decision budget: requests the
  // engine cannot decide in time are shed, not decided late. Wall-clock,
  // so the digest is not comparable here — this pass measures degradation
  // behaviour, not determinism.
  PassOptions overload_options;
  overload_options.open_loop = true;
  overload_options.rate = std::max(200.0, 2.0 * direct_off.throughput_rps);
  overload_options.deadline_ms = 10.0;
  const Pass overload = run_pass(requests, kSeed, overload_options);
  const serve::LoadgenReport& o = overload.report;
  const double answered =
      static_cast<double>(o.responses) > 0.0
          ? static_cast<double>(o.responses)
          : 1.0;
  const double shed_percent = static_cast<double>(o.shed) / answered * 100.0;
  const double turned_away_percent =
      static_cast<double>(o.shed + o.busy) / answered * 100.0;
  std::cout << "  overload:   " << overload_options.rate
            << " req/s offered -> shed " << o.shed << ", busy " << o.busy
            << " of " << o.responses << " answered (" << turned_away_percent
            << "% turned away)\n";
  if (o.responses + o.dropped < o.sent) {
    std::cerr << "FAIL: overload pass lost track of "
              << (o.sent - o.responses - o.dropped) << " requests\n";
    pass = false;
  }

  // --- shard-count sweep --------------------------------------------------
  // A Zipf multi-tenant stream across --shards 1/2/4. Two gates: the
  // merged decision digest must be identical at every shard count (the
  // order-independent merge contract, always asserted), and 4 shards must
  // deliver >= 1.7x the 1-shard aggregate throughput — asserted only on
  // machines with >= 4 hardware threads (a 1-core CI runner cannot scale
  // anything; the JSON records whether the gate was armed).
  serve::LoadgenConfig shard_stream_config;
  shard_stream_config.requests = requests;
  shard_stream_config.seed = kSeed;
  shard_stream_config.workload = "zipf:tenants=64,theta=0.9";
  const std::vector<serve::Request> tenant_stream =
      serve::make_request_stream(shard_stream_config);

  (void)run_shard_pass(tenant_stream, 4);  // warm-up
  std::vector<ShardPass> sweep;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    sweep.push_back(run_shard_pass(tenant_stream, shards));
    std::cout << "  shards " << shards << ":   "
              << sweep.back().throughput_rps << " dec/s (digest "
              << sweep.back().digest << ")\n";
  }
  bool shard_digest_invariant = true;
  for (const ShardPass& shard_pass : sweep) {
    if (shard_pass.digest != sweep.front().digest) {
      shard_digest_invariant = false;
    }
  }
  if (!shard_digest_invariant) {
    std::cerr << "FAIL: merged digest varies with shard count\n";
    pass = false;
  }
  const double speedup_4x = sweep.front().throughput_rps > 0.0
                                ? sweep.back().throughput_rps /
                                      sweep.front().throughput_rps
                                : 0.0;
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool speedup_gate_armed = hardware_threads >= 4;
  std::cout << "  scaling:    4 shards = " << speedup_4x << "x of 1 shard ("
            << hardware_threads << " hardware threads, gate "
            << (speedup_gate_armed ? "armed" : "skipped") << ")\n";
  if (speedup_gate_armed && speedup_4x < 1.7) {
    std::cerr << "FAIL: 4-shard speedup " << speedup_4x
              << "x below the 1.7x floor\n";
    pass = false;
  }

  // --- online advisor under a mix shift ----------------------------------
  // The advisor's home turf: a 4-tenant Zipf mix that starts on a
  // heavy-runtime / dense-arrival profile and shifts to the default Zipf
  // profile at t=40000 on the virtual clock — a mix the static default
  // policy is no longer the best risk-adjusted answer for.
  // Three measurements, three gates:
  //  - admission-throughput overhead of --advise-auto (rolling-window
  //    observation + scheduled shadow evaluations + live switching) vs the
  //    static default policy, budget < 5% (docs/ADVISOR.md). Best-of-3 per
  //    mode: spin-submit throughput jitters more than the budget.
  //  - determinism: all advise-auto passes must agree on the decision
  //    digest (switch events fold in, so it legitimately differs from the
  //    static pass's digest — that difference is not comparable here).
  //  - risk-adjusted advantage: an offline advisor replays the same job
  //    stream and scores every candidate policy with mean - lambda * sigma
  //    under the operator's preferences; the recommendation must beat the
  //    static default — the reason to run the advisor at all.
  //
  // The operator here is profit-focused (the weights lean on objective 4),
  // which is where the static default Libra — the best all-rounder under
  // equal weights — stops being the right answer and the advisor earns
  // its keep by moving the serving path to Libra+$.
  serve::LoadgenConfig mix_config;
  mix_config.requests = requests;
  mix_config.seed = kSeed;
  mix_config.workload =
      "zipf:tenants=4,theta=0.6,mean_runtime=14000,mean_interarrival=120";
  mix_config.mix_shift = "40000:zipf:tenants=4,theta=0.6";
  const std::vector<serve::Request> mix_stream =
      serve::make_request_stream(mix_config);
  const std::array<double, 4> operator_weights = {0.05, 0.15, 0.1, 0.7};
  constexpr double kRiskAversion = 0.5;

  const PassOptions static_options;
  PassOptions advised_options;
  advised_options.advisor.auto_switch = true;
  advised_options.advisor.advise_every = 1024;
  advised_options.advisor.window = 16;
  advised_options.advisor.scoring.objective_weights = operator_weights;
  advised_options.advisor.scoring.risk_aversion = kRiskAversion;

  (void)run_engine_pass(mix_stream, static_options);  // warm-up
  double static_rps = 0.0;
  for (int i = 0; i < 3; ++i) {
    static_rps = std::max(
        static_rps, run_engine_pass(mix_stream, static_options).throughput_rps);
  }
  double advised_rps = 0.0;
  EnginePass advised;
  bool advise_digest_reproduced = true;
  std::string advised_digest;
  for (int i = 0; i < 3; ++i) {
    advised = run_engine_pass(mix_stream, advised_options);
    advised_rps = std::max(advised_rps, advised.throughput_rps);
    if (advised_digest.empty()) {
      advised_digest = advised.stats.decision_digest;
    } else if (advised.stats.decision_digest != advised_digest) {
      advise_digest_reproduced = false;
    }
  }
  const double advise_overhead_percent =
      static_rps > 0.0
          ? std::max(0.0, (static_rps - advised_rps) / static_rps * 100.0)
          : 0.0;
  std::cout << "  advise:     static " << static_rps << " dec/s, auto "
            << advised_rps << " dec/s (" << advise_overhead_percent
            << "% overhead, " << advised.stats.advisor_evaluations
            << " evaluations, " << advised.stats.policy_switches
            << " switches, digest " << advised_digest << ")\n";
  if (advised.stats.advisor_evaluations == 0) {
    std::cerr << "FAIL: advise-auto pass never reached a switch point — "
                 "the overhead measurement is vacuous\n";
    pass = false;
  }
  if (!advise_digest_reproduced) {
    std::cerr << "FAIL: advise-auto passes diverged on the decision digest\n";
    pass = false;
  }
  if (advise_overhead_percent >= 5.0) {
    std::cerr << "FAIL: advise-auto overhead " << advise_overhead_percent
              << "% breaches the 5% budget\n";
    pass = false;
  }

  // Offline verdict: replay the stream's jobs through a scratch advisor
  // (same knobs, same shadow world as the engine's defaults) and read the
  // final ranking under the operator's preferences. The live objective
  // feed mirrors the estimator contract — cumulative inputs after each
  // admission.
  advise::OnlineAdvisorConfig offline_config = advised_options.advisor;
  offline_config.auto_switch = false;  // read the ranking, don't act on it
  advise::AdvisorEngine offline(offline_config, advise::ShadowContext{},
                                policy::PolicyKind::Libra);
  core::ObjectiveInputs offline_inputs;
  std::uint64_t next_job_id = 1;
  for (const serve::Request& request : mix_stream) {
    const workload::Job job =
        serve::to_job(request, next_job_id++, request.submit_time);
    offline_inputs.submitted += 1;
    offline_inputs.accepted += 1;
    offline_inputs.fulfilled += 1;
    offline_inputs.wait_sum_fulfilled += 0.25 * job.actual_runtime;
    offline_inputs.total_utility += 0.8 * job.budget;
    offline_inputs.total_budget += job.budget;
    offline.observe(1, job, core::compute_objectives(offline_inputs));
    if (offline.at_switch_point(1)) (void)offline.evaluate(1);
  }
  const advise::Snapshot verdict =
      offline.query(1, operator_weights, kRiskAversion);
  const std::string static_policy{
      policy::to_string(policy::PolicyKind::Libra)};
  double recommended_score = 0.0;
  double static_score = 0.0;
  for (const advise::RankedPolicy& entry : verdict.ranked) {
    if (entry.policy == verdict.recommended) recommended_score = entry.score;
    if (entry.policy == static_policy) static_score = entry.score;
  }
  const bool advisor_beats_static =
      !verdict.ranked.empty() && verdict.recommended != static_policy &&
      recommended_score > static_score;
  std::cout << "  verdict:    recommended " << verdict.recommended
            << " (score " << recommended_score << ") vs static "
            << static_policy << " (score " << static_score << ")\n";
  if (!advisor_beats_static) {
    std::cerr << "FAIL: the advisor's recommendation does not beat the "
                 "static default on risk-adjusted score\n";
    pass = false;
  }

  obs::json::Array shard_rows;
  for (const ShardPass& shard_pass : sweep) {
    shard_rows.push_back(obs::json::Object{
        {"shards", shard_pass.shards},
        {"wall_seconds", shard_pass.wall_seconds},
        {"throughput_rps", shard_pass.throughput_rps},
        {"decision_digest", shard_pass.digest}});
  }
  const obs::json::Value out = obs::json::Object{
      {"bench", "serving"},
      {"mode", "closed_loop"},
      {"requests", requests},
      {"seed", kSeed},
      {"responses", r.responses},
      {"accepted", r.accepted},
      {"rejected", r.rejected},
      {"busy", r.busy},
      {"dropped", r.dropped},
      {"wall_seconds", r.wall_seconds},
      {"throughput_rps", r.throughput_rps},
      {"latency_p50_ms", r.latency.p50_ms},
      {"latency_p95_ms", r.latency.p95_ms},
      {"latency_p99_ms", r.latency.p99_ms},
      {"latency_mean_ms", r.latency.mean_ms},
      {"latency_max_ms", r.latency.max_ms},
      {"decision_digest", r.decision_digest},
      {"digest_reproduced",
       r.decision_digest == second.report.decision_digest},
      {"journal",
       obs::json::Object{
           {"fsync", "batch"},
           {"baseline_rps", direct_off.throughput_rps},
           {"throughput_rps", journal_rps},
           {"overhead_percent", overhead_percent},
           {"digest_unchanged", direct_on.stats.decision_digest ==
                                    direct_off.stats.decision_digest},
           {"appends", direct_on.journal.requests},
           {"ticks", direct_on.journal.ticks},
           {"fsyncs", direct_on.journal.fsyncs},
           {"rotations", direct_on.journal.rotations},
           {"bytes", direct_on.journal.bytes}}},
      {"overload",
       obs::json::Object{{"offered_rps", overload_options.rate},
                         {"deadline_ms", overload_options.deadline_ms},
                         {"sent", o.sent},
                         {"responses", o.responses},
                         {"shed", o.shed},
                         {"busy", o.busy},
                         {"shed_percent", shed_percent},
                         {"turned_away_percent", turned_away_percent},
                         {"latency_p99_ms", o.latency.p99_ms}}},
      {"shard_sweep",
       obs::json::Object{
           {"workload", shard_stream_config.workload},
           {"requests", tenant_stream.size()},
           {"shards", std::move(shard_rows)},
           {"digest_invariant", shard_digest_invariant},
           {"speedup_4x", speedup_4x},
           {"hardware_threads", static_cast<std::uint64_t>(hardware_threads)},
           {"speedup_gate_armed", speedup_gate_armed}}},
      {"advise",
       obs::json::Object{
           {"workload", mix_config.workload},
           {"mix_shift", mix_config.mix_shift},
           {"requests", mix_stream.size()},
           {"advise_every", advised_options.advisor.advise_every},
           {"window", advised_options.advisor.window},
           {"weights",
            obs::json::Array(operator_weights.begin(),
                             operator_weights.end())},
           {"risk_aversion", kRiskAversion},
           {"static_rps", static_rps},
           {"advised_rps", advised_rps},
           {"overhead_percent", advise_overhead_percent},
           {"evaluations", advised.stats.advisor_evaluations},
           {"policy_switches", advised.stats.policy_switches},
           {"decision_digest", advised_digest},
           {"digest_reproduced", advise_digest_reproduced},
           {"static_policy", static_policy},
           {"static_score", static_score},
           {"recommended", verdict.recommended},
           {"recommended_score", recommended_score},
           {"advisor_beats_static", advisor_beats_static}}},
      {"pass", pass}};
  const std::string path = env.out_dir + "/BENCH_serving.json";
  std::ofstream json(path);
  out.dump(json);
  std::cout << "[wrote " << path << "]\n";

  return pass ? 0 : 1;
}
