// The traced pass (--trace 1): one probe per layer, timed from outside by
// calls into the layer's public API, with spans recorded around the calls.
//
// The probes are the same whatever --workload names, so every traced run
// prints the whole per-layer table; each row names the end-to-end metric
// and workload it should move (perfbench/README.md). The traced suite
// (sweep cells: build -> simulate_run_report -> reduce; requests:
// parse_request -> submit...completion -> encode_response) also runs with
// tracing off, interleaved, and the difference is trace.overhead_pct.
// The spans are written to .bench_trace.json at the end, one per line.
#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "advise/advisor_engine.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "open_loop.hpp"
#include "process.hpp"
#include "serve/engine.hpp"
#include "serve/journal.hpp"
#include "serve/loadgen.hpp"
#include "serve/shard.hpp"
#include "service/computing_service.hpp"
#include "sim/event_queue.hpp"
#include "trace.hpp"
#include "verify/golden.hpp"
#include "verify/invariants.hpp"
#include "workloads.hpp"

namespace utilrisk::perfbench {

namespace {

constexpr int kRepeats = 5;
/// Untraced/traced suite pairs behind trace.overhead_pct.
constexpr int kSuiteRounds = 3;
/// Where the traced pass writes its spans, relative to the checkout.
constexpr const char* kSpansPath = ".bench_trace.json";

const char* const kSweep = "paper_sweep";
const char* const kOpen = "serve_open_journal";
const char* const kClosed = "serve_tenants_closed";
const char* const kAll = "all";

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

bool is_time_shared(policy::PolicyKind kind) {
  return kind == policy::PolicyKind::Libra ||
         kind == policy::PolicyKind::LibraDollar ||
         kind == policy::PolicyKind::LibraRiskD;
}

/// Blocks until `target` completions have fired.
class CompletionLatch {
 public:
  void arrive() {
    {
      std::lock_guard lock(mutex_);
      ++count_;
    }
    ready_.notify_all();
  }
  void wait_for(std::uint64_t target) {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return count_ >= target; });
  }

 private:
  std::mutex mutex_;  ///< guards count_
  std::condition_variable ready_;
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------- suite

/// What the traced suite measured (identical work traced or not).
struct SuiteResult {
  double seconds = 0.0;
  std::uint64_t sweep_digest = 0;
  std::uint64_t events = 0;
  std::uint64_t jobs = 0;
  double time_shared_ns = 0.0;  ///< simulate_run_report wall, per family
  std::uint64_t time_shared_jobs = 0;
  double space_shared_ns = 0.0;
  std::uint64_t space_shared_jobs = 0;
  std::vector<double> reduce_ms;
  std::vector<double> handoff_us;  ///< submit -> completion, one in flight
  std::uint64_t request_digest = 0;
  bool invariants_ok = true;
};

/// One Table VI scenario (job mix, six values) over each model's Table V
/// policies: build -> simulate_run_report per cell, reduce per model.
void sweep_cells(Tracer& tracer, std::uint64_t seed, SuiteResult& out) {
  const exp::Scenario& scenario = exp::all_scenarios().front();
  std::uint64_t cell = 0;
  std::vector<std::uint64_t> digests;
  for (const economy::EconomicModel model :
       {economy::EconomicModel::CommodityMarket,
        economy::EconomicModel::BidBased}) {
    const exp::ExperimentConfig config = paper_config(model, seed);
    const workload::WorkloadBuilder builder = config.make_builder();
    const exp::RunSettings defaults = config.default_settings();
    exp::SweepResult result;
    result.policies = policy::policies_for_model(model);
    result.scenario_names.push_back(scenario.name);
    result.raw.resize(1);
    result.separate.resize(1);
    for (auto& per_objective : result.raw[0]) {
      per_objective.assign(result.policies.size(),
                           std::vector<double>(scenario.values.size(), 0.0));
    }
    for (std::size_t p = 0; p < result.policies.size(); ++p) {
      for (std::size_t v = 0; v < scenario.values.size(); ++v) {
        ++cell;
        ScopedSpan cell_span(tracer, "exp.cell", -1, cell);
        const exp::RunSettings settings = scenario.settings_for(defaults, v);
        {
          // The job stream simulate_run_report builds first, on its own.
          ScopedSpan build(tracer, "workload.build", cell_span.handle(),
                           cell);
          workload::QosConfig qos;
          qos.high_urgency_percent = settings.high_urgency_percent;
          qos.deadline = settings.deadline;
          qos.budget = settings.budget;
          qos.penalty = settings.penalty;
          qos.base_price = config.pricing.base_price;
          qos.seed = config.qos_seed;
          (void)builder.build(qos, settings.arrival_delay_factor,
                              settings.inaccuracy_percent);
        }
        const std::int64_t start = now_ns();
        service::SimulationReport report;
        {
          ScopedSpan run(tracer, "service.simulate_run_report",
                         cell_span.handle(), cell);
          report = exp::simulate_run_report(config, builder,
                                            result.policies[p], settings);
        }
        const double ns = static_cast<double>(now_ns() - start);
        const std::uint64_t jobs = report.records.size();
        out.events += report.events_dispatched;
        out.jobs += jobs;
        if (is_time_shared(result.policies[p])) {
          out.time_shared_ns += ns;
          out.time_shared_jobs += jobs;
        } else {
          out.space_shared_ns += ns;
          out.space_shared_jobs += jobs;
        }
        out.invariants_ok =
            out.invariants_ok &&
            verify::check_invariants(report, config.machine.node_count).ok();
        for (core::Objective objective : core::kAllObjectives) {
          result.raw[0][static_cast<std::size_t>(objective)][p][v] =
              report.objectives.get(objective);
        }
      }
    }
    const std::int64_t start = now_ns();
    {
      ScopedSpan reduce(tracer, "core.reduce", -1, cell);
      exp::reduce_scenario(result, 0, config.normalization);
    }
    out.reduce_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    digests.push_back(verify::sweep_digest(result));
  }
  verify::DigestStream combined;
  for (std::uint64_t digest : digests) combined.put_u64(digest);
  out.sweep_digest = combined.value();
}

/// Closed loop through an in-process engine, one request in flight:
/// parse_request -> submit...completion -> encode_response.
void request_path(Tracer& tracer, const std::vector<std::string>& lines,
                  SuiteResult& out) {
  serve::EngineConfig config;
  config.policy = policy::PolicyKind::Libra;
  serve::AdmissionEngine engine(config);
  engine.start();
  CompletionLatch latch;
  verify::UnorderedDigest digest;
  std::uint64_t id = 0;
  for (const std::string& line : lines) {
    ++id;
    ScopedSpan request_span(tracer, "client.request", -1, id);
    serve::Request request;
    {
      ScopedSpan parse(tracer, "protocol.parse_request",
                       request_span.handle(), id);
      request = serve::parse_request(line);
    }
    serve::Response response;
    const std::int64_t submit_span =
        tracer.begin("engine.submit", request_span.handle(), id);
    const std::int64_t start = now_ns();
    std::int64_t done = 0;
    while (!engine.submit(request, [&](const serve::Response& answer) {
      done = now_ns();
      tracer.end(submit_span);
      response = answer;
      latch.arrive();
    })) {
      std::this_thread::yield();
    }
    latch.wait_for(id);
    out.handoff_us.push_back(static_cast<double>(done - start) / 1e3);
    {
      ScopedSpan encode(tracer, "protocol.encode_response",
                        request_span.handle(), id);
      digest.add(serve::decision_hash(response));
      (void)serve::encode_response(response);
    }
  }
  engine.drain();
  out.request_digest = digest.value();
}

SuiteResult run_suite(Tracer& tracer, std::uint64_t seed,
                      const std::vector<std::string>& lines) {
  SuiteResult out;
  const std::int64_t start = now_ns();
  sweep_cells(tracer, seed, out);
  request_path(tracer, lines, out);
  out.seconds = seconds_since(start);
  return out;
}

// --------------------------------------------------------------- probes

/// ns per pop + push pair of a hold model at `live` pending events.
double queue_hold_ns(std::size_t live, std::size_t operations) {
  sim::EventQueue queue;
  std::mt19937_64 rng(live);
  std::exponential_distribution<double> gap(1.0);
  double now = 0.0;
  for (std::size_t i = 0; i < live; ++i) queue.push(gap(rng), [] {});
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < operations; ++i) {
    const auto popped = queue.pop();
    now = popped ? popped->time : now;
    queue.push(now + gap(rng), [] {});
  }
  return static_cast<double>(now_ns() - start) /
         static_cast<double>(operations);
}

/// Engine throughput with the queue kept full: seconds and batches.
struct DecideResult {
  double us_per_decision = 0.0;
  double batch_mean = 0.0;
};

DecideResult decide_throughput(const std::vector<serve::Request>& requests) {
  serve::EngineConfig config;
  config.policy = policy::PolicyKind::Libra;
  serve::AdmissionEngine engine(config);
  engine.start();
  CompletionLatch latch;
  const std::int64_t start = now_ns();
  for (const serve::Request& request : requests) {
    while (!engine.submit(request,
                          [&](const serve::Response&) { latch.arrive(); })) {
      std::this_thread::yield();
    }
  }
  latch.wait_for(requests.size());
  const double seconds = seconds_since(start);
  const serve::EngineStats stats = engine.drain();
  DecideResult out;
  out.us_per_decision = seconds * 1e6 / static_cast<double>(requests.size());
  out.batch_mean = stats.batches == 0
                       ? 0.0
                       : static_cast<double>(stats.processed) /
                             static_cast<double>(stats.batches);
  return out;
}

/// Slope of this process's VmRSS while an in-process engine decides
/// `requests` (bytes per request).
double engine_rss_slope(const std::vector<serve::Request>& requests) {
  serve::EngineConfig config;
  config.policy = policy::PolicyKind::Libra;
  serve::AdmissionEngine engine(config);
  engine.start();
  CompletionLatch latch;
  std::vector<std::pair<double, double>> points;
  const std::size_t chunk = requests.size() / 10;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    while (!engine.submit(requests[i],
                          [&](const serve::Response&) { latch.arrive(); })) {
      std::this_thread::yield();
    }
    if ((i + 1) % chunk == 0) {
      latch.wait_for(i + 1);
      points.emplace_back(static_cast<double>(i + 1),
                          proc_status_bytes(0, "VmRSS"));
    }
  }
  engine.drain();
  return slope(points);
}

struct JournalResult {
  double append_ns = 0.0;
  double sync_us = 0.0;
  double bytes_per_request = 0.0;
  double load_s = 0.0;
  double replay_s = 0.0;
  bool recovered = false;
};

JournalResult journal_probe(Tracer& tracer, const WorkDir& work,
                            const std::vector<serve::Request>& requests) {
  JournalResult out;
  {
    // Append throughput, no fsync.
    serve::JournalConfig config;
    config.directory = work.path("append");
    config.fsync = serve::FsyncPolicy::None;
    serve::JournalWriter writer(config);
    ScopedSpan span(tracer, "journal.append");
    const std::int64_t start = now_ns();
    for (const serve::Request& request : requests) {
      writer.append_request(request);
    }
    out.append_ns = static_cast<double>(now_ns() - start) /
                    static_cast<double>(requests.size());
  }
  {
    // One tick of 16 requests, then the group-commit sync.
    serve::JournalConfig config;
    config.directory = work.path("sync");
    config.fsync = serve::FsyncPolicy::Batch;
    serve::JournalWriter writer(config);
    std::vector<double> sync_us;
    std::size_t next = 0;
    for (int tick = 0; tick < 200 && next + 16 <= requests.size(); ++tick) {
      for (int i = 0; i < 16; ++i) writer.append_request(requests[next++]);
      writer.append_tick(next, "0000000000000000", /*sync_now=*/false);
      ScopedSpan span(tracer, "journal.sync");
      const std::int64_t start = now_ns();
      writer.sync();
      sync_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
    out.sync_us = median(sync_us);
    out.bytes_per_request = static_cast<double>(writer.stats().bytes) /
                            static_cast<double>(writer.stats().requests);
  }
  {
    // Recovery: write a history through an engine, load it, replay it.
    serve::EngineConfig config;
    config.policy = policy::PolicyKind::Libra;
    config.journal_dir = work.path("history");
    config.fsync = serve::FsyncPolicy::None;
    {
      serve::AdmissionEngine engine(config);
      engine.start();
      for (const serve::Request& request : requests) {
        while (!engine.submit(request, [](const serve::Response&) {})) {
          std::this_thread::yield();
        }
      }
      engine.drain();
    }
    std::int64_t start = now_ns();
    {
      ScopedSpan span(tracer, "journal.load");
      const serve::RecoveredJournal loaded =
          serve::load_journal(config.journal_dir);
      out.recovered = loaded.requests.size() == requests.size();
    }
    out.load_s = seconds_since(start);
    start = now_ns();
    {
      ScopedSpan span(tracer, "engine.replay");
      serve::AdmissionEngine engine(config);
      out.recovered = out.recovered && engine.recovery().digest_match &&
                      engine.recovery().replayed == requests.size();
    }
    out.replay_s = std::max(0.0, seconds_since(start) - out.load_s);
  }
  return out;
}

struct AdviseResult {
  double observe_ns = 0.0;
  double query_us = 0.0;
};

AdviseResult advise_probe(Tracer& tracer,
                          const std::vector<serve::Request>& requests) {
  advise::OnlineAdvisorConfig config;
  config.advise_every = 256;
  advise::ShadowContext context;
  advise::AdvisorEngine advisor(config, context, policy::PolicyKind::Libra);
  std::vector<std::uint64_t> keys;
  double observe_ns = 0.0;
  std::uint64_t id = 0;
  for (const serve::Request& request : requests) {
    ++id;
    const std::uint64_t key = serve::routing_key(request);
    const workload::Job job =
        serve::to_job(request, id, request.submit_time);
    // Deterministic stand-in samples; the estimators' cost does not
    // depend on the values.
    core::ObjectiveValues live;
    live.wait = static_cast<double>(id % 100) * 10.0;
    live.sla = 50.0 + static_cast<double>(id % 7) * 5.0;
    live.reliability = 60.0 + static_cast<double>(id % 5) * 6.0;
    live.profitability = 40.0 + static_cast<double>(id % 11) * 4.0;
    {
      ScopedSpan span(tracer, "advise.observe", -1, id);
      const std::int64_t start = now_ns();
      advisor.observe(key, job, live);
      observe_ns += static_cast<double>(now_ns() - start);
    }
    if (advisor.at_switch_point(key)) {
      ScopedSpan span(tracer, "advise.evaluate", -1, id);
      (void)advisor.evaluate(key);
    }
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  std::vector<double> query_us;
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t key : keys) {
      ScopedSpan span(tracer, "advise.query", -1, key);
      const std::int64_t start = now_ns();
      (void)advisor.query(key, {0.25, 0.25, 0.25, 0.25}, 0.5);
      query_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
  }
  AdviseResult out;
  out.observe_ns = observe_ns / static_cast<double>(requests.size());
  out.query_us = median(query_us);
  return out;
}

/// A short live session against `utilrisk serve --policy Libra --journal
/// --fsync batch`: closed-loop round trips, then one open-loop second at
/// each fixed rate.
struct LiveResult {
  double rtt_p50_us = 0.0;
  double lag_p99_ms = 0.0;
  Tally tally;
  double busy = 0.0;
  double shed = 0.0;
  double malformed = 0.0;
  double requests_per_fsync = 0.0;
  double batch_mean = 0.0;
  bool digest_match = false;
};

LiveResult live_probe(const Options& options, const WorkDir& work,
                      const std::vector<serve::Request>& stream) {
  LiveResult out;
  const std::string socket = work.path("live.sock");
  const std::string manifest_dir = work.path("manifest");
  // The manifest carries the engine's batch count.
  ServerProcess server(
      options.utilrisk,
      {"serve", "--socket", socket, "--manifest-dir", manifest_dir,
       "--policy", "Libra", "--journal", work.path("live-journal"),
       "--fsync", "batch"});
  verify::UnorderedDigest digest;
  std::size_t next = 0;
  {
    Connection connection(socket, 60.0);
    std::vector<double> rtt_us;
    serve::Response response;
    for (; next < 2000; ++next) {
      const double ms = round_trip(connection, stream[next], response);
      ++out.tally.sent;
      if (ms < 0.0) {
        ++out.tally.dropped;
        break;
      }
      if (tally_response(response, out.tally, digest)) {
        rtt_us.push_back(ms * 1e3);
      }
    }
    out.rtt_p50_us = median(rtt_us);
    std::vector<double> lag_ms;
    for (double rate : {kLightRate, kHeavyRate}) {
      StepStats step =
          run_open_step(connection, stream, next, rate, 1.0, digest);
      out.tally.add(step.tally);
      lag_ms.insert(lag_ms.end(), step.lag_ms.begin(), step.lag_ms.end());
    }
    out.lag_p99_ms = tail_percentile(lag_ms).value;
  }
  auto summary = server.stop();
  out.digest_match = summary["digest"] == verify::to_hex(digest.value());
  out.busy = std::atof(summary["busy"].c_str());
  out.shed = std::atof(summary["shed"].c_str());
  out.malformed = std::atof(summary["malformed"].c_str());
  const double fsyncs = summary_count(summary["journal"], "fsyncs");
  out.requests_per_fsync =
      fsyncs > 0.0 ? summary_count(summary["journal"], "requests") / fsyncs
                   : 0.0;
  std::ifstream in(manifest_dir + "/utilrisk_manifest_serve.json");
  std::stringstream text;
  text << in.rdbuf();
  const obs::json::Value manifest = obs::json::parse(text.str());
  const double batches = manifest.at("stats").at("batches").as_number();
  out.batch_mean =
      batches > 0.0
          ? manifest.at("stats").at("processed").as_number() / batches
          : 0.0;
  return out;
}

/// Every span, one JSON object per line: name, parent index,
/// request id, start and end (ns, steady clock).
void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& span : spans) {
    obs::json::Value entry;
    entry.set("name", span.name);
    entry.set("parent", static_cast<std::int64_t>(span.parent));
    entry.set("request", span.request);
    entry.set("start_ns", static_cast<std::int64_t>(span.start_ns));
    entry.set("end_ns", static_cast<std::int64_t>(span.end_ns));
    out << compact(entry) << '\n';
  }
}

}  // namespace

Outcome run_layers(const Options& options) {
  Outcome outcome;
  WorkDir work(kWorkDir);
  Tracer traced(true);

  serve::LoadgenConfig sdsc;
  sdsc.seed = options.seed;
  sdsc.requests = 45000;
  const std::vector<serve::Request> stream = serve::make_request_stream(sdsc);
  serve::LoadgenConfig tenants = sdsc;
  tenants.workload = "zipf:tenants=64,theta=0.9";
  tenants.requests = 20000;
  const std::vector<serve::Request> tenant_stream =
      serve::make_request_stream(tenants);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 2000; ++i) {
    lines.push_back(serve::encode_request(stream[i]));
  }

  // The suite, untraced and traced, interleaved.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  SuiteResult suite;
  for (int round = 0; round < kSuiteRounds; ++round) {
    Tracer off(false);
    const SuiteResult plain = run_suite(off, options.seed, lines);
    untraced_s.push_back(plain.seconds);
    // Only the first traced round feeds the self-time table.
    Tracer scratch(true);
    suite = run_suite(round == 0 ? traced : scratch, options.seed, lines);
    traced_s.push_back(suite.seconds);
    outcome.check(plain.sweep_digest == suite.sweep_digest &&
                      plain.request_digest == suite.request_digest,
                  "trace: traced and untraced probes disagree");
    outcome.check(plain.invariants_ok && suite.invariants_ok,
                  "trace: a sweep cell broke a run invariant");
  }
  const double overhead_pct =
      (median(traced_s) / median(untraced_s) - 1.0) * 100.0;

  std::vector<double> build_ms;
  for (int i = 0; i < kRepeats * 2 - 1; ++i) {
    ScopedSpan span(traced, "workload.make_builder");
    const std::int64_t start = now_ns();
    (void)paper_config(economy::EconomicModel::CommodityMarket, options.seed)
        .make_builder();
    build_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }

  double queue_ns = 0.0;
  {
    ScopedSpan span(traced, "sim.queue_hold");
    queue_ns = queue_hold_ns(1024, 2'000'000);
  }

  std::vector<double> parse_ns;
  std::vector<double> encode_ns;
  {
    std::vector<serve::Response> responses;
    for (const serve::Request& request : stream) {
      serve::Response response;
      response.id = request.id;
      response.status = serve::Status::Accepted;
      response.price = request.budget;
      response.risk = 0.25;
      response.virtual_time = request.submit_time;
      responses.push_back(response);
    }
    std::vector<std::string> all_lines;
    for (const serve::Request& request : stream) {
      all_lines.push_back(serve::encode_request(request));
    }
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::uint64_t sink = 0;
      std::int64_t start = now_ns();
      {
        ScopedSpan span(traced, "protocol.parse_request");
        for (const std::string& line : all_lines) {
          sink += serve::parse_request(line).procs;
        }
      }
      parse_ns.push_back(static_cast<double>(now_ns() - start) /
                         static_cast<double>(all_lines.size()));
      start = now_ns();
      {
        ScopedSpan span(traced, "protocol.encode_response");
        for (const serve::Response& response : responses) {
          sink += serve::encode_response(response).size();
        }
      }
      encode_ns.push_back(static_cast<double>(now_ns() - start) /
                          static_cast<double>(responses.size()));
      outcome.check(sink > 0, "trace: protocol probe did no work");
    }
  }

  DecideResult decide;
  {
    ScopedSpan span(traced, "engine.decide");
    decide = decide_throughput(
        std::vector<serve::Request>(stream.begin(), stream.begin() + 20000));
  }
  double rss_slope = 0.0;
  {
    serve::LoadgenConfig long_stream = sdsc;
    long_stream.requests = 100000;
    long_stream.seed = options.seed + 1;
    const std::vector<serve::Request> requests =
        serve::make_request_stream(long_stream);
    ScopedSpan span(traced, "engine.rss");
    rss_slope = engine_rss_slope(requests);
  }

  const JournalResult journal = journal_probe(
      traced, work,
      std::vector<serve::Request>(stream.begin(), stream.begin() + 20000));
  outcome.check(journal.recovered,
                "trace: journal recovery did not reproduce the history");

  const serve::ShardRouter router(2);
  std::vector<std::uint64_t> keys;
  for (const serve::Request& request : tenant_stream) {
    keys.push_back(serve::routing_key(request));
  }
  std::vector<double> routed(2, 0.0);
  std::vector<double> route_ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::fill(routed.begin(), routed.end(), 0.0);
    ScopedSpan span(traced, "shard.shard_for");
    const std::int64_t start = now_ns();
    for (std::uint64_t key : keys) routed[router.shard_for(key)] += 1.0;
    route_ns.push_back(static_cast<double>(now_ns() - start) /
                       static_cast<double>(keys.size()));
  }
  const double imbalance =
      *std::max_element(routed.begin(), routed.end()) /
      (static_cast<double>(keys.size()) / 2.0);

  const AdviseResult advise = advise_probe(traced, tenant_stream);

  LiveResult live;
  {
    ScopedSpan span(traced, "server.live_session");
    live = live_probe(options, work,
                      std::vector<serve::Request>(stream.begin() + 2000,
                                                  stream.end()));
  }
  outcome.check(live.digest_match,
                "trace: live server digest != client digest");

  outcome.attempted = suite.jobs + live.tally.sent + lines.size();
  outcome.failed = live.tally.misses();

  const double handoff_p50 = median(suite.handoff_us);
  const std::map<std::string, double> self_ms = traced.self_ms_by_layer();
  const auto row = [&](const std::string& name, double value,
                       const std::string& unit, std::size_t samples,
                       const std::string& layer, const std::string& moves,
                       const std::string& workload) {
    const auto self = self_ms.find(layer);
    outcome.layers.push_back({{name, value, unit, samples, ""},
                              layer,
                              self == self_ms.end() ? 0.0 : self->second,
                              moves,
                              workload});
  };
  // Each row: the end-to-end metric it should move (a named detail
  // metric; perfbench/README.md maps each to the gated metric) and on
  // which workload.
  const std::string open_closed = std::string(kOpen) + ", " + kClosed;
  const std::string sweep_open = std::string(kSweep) + ", " + kOpen;
  const double jobs = static_cast<double>(suite.jobs);
  row("workload.build_ms", median(build_ms), "ms", build_ms.size(),
      "workload", "setup_s", kAll);
  row("sim.events_per_job", static_cast<double>(suite.events) / jobs,
      "count", suite.jobs, "service", "sweep_s; p50_ms.*", sweep_open);
  row("sim.queue_push_pop_ns", queue_ns, "ns", 2'000'000, "sim", "sweep_s",
      kSweep);
  row("run.ns_per_job.timeshared",
      suite.time_shared_ns / static_cast<double>(suite.time_shared_jobs),
      "ns", suite.time_shared_jobs, "service",
      "sweep_s; p50_ms.*, max_rate_rps", sweep_open);
  row("run.ns_per_job.spaceshared",
      suite.space_shared_ns / static_cast<double>(suite.space_shared_jobs),
      "ns", suite.space_shared_jobs, "service", "sweep_s; closed_rps",
      std::string(kSweep) + ", " + kClosed);
  row("core.reduce_ms", median(suite.reduce_ms), "ms", suite.reduce_ms.size(),
      "core", "sweep_s", kSweep);
  row("protocol.parse_ns", median(parse_ns), "ns", stream.size(), "protocol",
      "closed_p50_ms; p50_ms.lo", open_closed);
  row("protocol.encode_ns", median(encode_ns), "ns", stream.size(),
      "protocol", "closed_p50_ms; p50_ms.lo", open_closed);
  row("engine.decide_us", decide.us_per_decision, "us", 20000, "engine",
      "max_rate_rps, capacity_rps; closed_rps", open_closed);
  row("engine.handoff_us", std::max(0.0, handoff_p50 - decide.us_per_decision),
      "us", suite.handoff_us.size(), "engine", "closed_p50_ms; p50_ms.lo",
      open_closed);
  row("engine.batch_mean", live.batch_mean, "count", live.tally.sent,
      "engine", "p99_ms.hi", kOpen);
  row("engine.rss_bytes_per_request", rss_slope, "B", 100000, "engine",
      "peak_rss_mib", kOpen);
  row("journal.append_ns", journal.append_ns, "ns", 20000, "journal",
      "p50_ms.hi", kOpen);
  row("journal.sync_us", journal.sync_us, "us", 200, "journal",
      "p50_ms.lo, p99_ms.lo", kOpen);
  row("journal.requests_per_fsync", live.requests_per_fsync, "count",
      live.tally.sent, "journal", "p99_ms.*", kOpen);
  row("journal.bytes_per_request", journal.bytes_per_request, "B", 3200,
      "journal", "journal.sync_us", kOpen);
  row("journal.load_s", journal.load_s, "s", 20000, "journal", "setup_s",
      kOpen);
  row("engine.replay_s", journal.replay_s, "s", 20000, "engine", "setup_s",
      kOpen);
  row("shard.route_ns", median(route_ns), "ns", keys.size(), "shard",
      "closed_p50_ms", kClosed);
  row("shard.imbalance", imbalance, "ratio", keys.size(), "shard",
      "closed_rps", kClosed);
  row("server.transport_us", std::max(0.0, live.rtt_p50_us - handoff_p50),
      "us", 2000, "server", "closed_p50_ms; p50_ms.lo", open_closed);
  row("advise.query_us", advise.query_us, "us", 5, "advise", "advise_p50_ms",
      kClosed);
  row("advise.observe_ns", advise.observe_ns, "ns", tenant_stream.size(),
      "advise", "closed_rps", kClosed);
  row("gen.lag_p99_ms", live.lag_p99_ms, "ms", live.tally.sent, "server",
      "none (validity check)", kOpen);
  row("trace.overhead_pct", overhead_pct, "%", untraced_s.size(), "client",
      "none (validity check)", kAll);
  row("server.busy", live.busy, "count", live.tally.sent, "server",
      "fail_ratio", open_closed);
  row("engine.shed", live.shed, "count", live.tally.sent, "engine",
      "fail_ratio", open_closed);
  row("server.malformed", live.malformed, "count", live.tally.sent, "server",
      "fail_ratio", open_closed);
  row("client.dropped", static_cast<double>(live.tally.dropped), "count",
      live.tally.sent, "server", "fail_ratio", open_closed);
  for (const auto& [layer, ms] : self_ms) {
    std::ostringstream text;
    text << ms;
    outcome.facts.emplace_back("self_ms." + layer, text.str());
  }
  write_spans(traced.spans(), kSpansPath);
  outcome.facts.emplace_back("spans", std::string(kSpansPath));
  return outcome;
}

}  // namespace utilrisk::perfbench
