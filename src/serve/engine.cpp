#include "serve/engine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace utilrisk::serve {

namespace {

/// Latency buckets for the request-path histograms: 10 µs .. 10 s.
const std::vector<double>& request_time_buckets() {
  static const std::vector<double> buckets = {
      1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
      1e-1, 3e-1, 1.0,  3.0,  10.0};
  return buckets;
}

const std::vector<double>& batch_size_buckets() {
  static const std::vector<double> buckets = {1,  2,  4,   8,   16,
                                              32, 64, 128, 256, 512};
  return buckets;
}

/// Element hash of one live policy switch for the order-independent
/// decision digest: replay and recovery must fold the identical value, so
/// it is a pure function of the switch record (key, per-key decision
/// count, from, to) — never of wall-clock or journal position.
[[nodiscard]] std::uint64_t switch_event_hash(const SwitchRecord& record) {
  verify::DigestStream stream;
  stream.put_string("switch");
  stream.put_u64(record.key);
  stream.put_u64(record.at);
  stream.put_string(record.from);
  stream.put_string(record.to);
  return stream.value();
}

void accumulate_inputs(core::ObjectiveInputs& into,
                       const core::ObjectiveInputs& add) {
  into.submitted += add.submitted;
  into.accepted += add.accepted;
  into.fulfilled += add.fulfilled;
  into.wait_sum_fulfilled += add.wait_sum_fulfilled;
  into.total_utility += add.total_utility;
  into.total_budget += add.total_budget;
}

}  // namespace

AdmissionEngine::AdmissionEngine(const EngineConfig& config)
    : config_(config), queue_(config.queue_capacity) {
  config_.machine.validate();

  requests_metric_ = obs::counter_or_null(config_.metrics, "serve.requests");
  accepted_metric_ = obs::counter_or_null(config_.metrics, "serve.accepted");
  rejected_metric_ = obs::counter_or_null(config_.metrics, "serve.rejected");
  busy_metric_ = obs::counter_or_null(config_.metrics, "serve.busy");
  shed_metric_ = obs::counter_or_null(config_.metrics, "serve.shed_total");
  brownout_metric_ =
      obs::counter_or_null(config_.metrics, "serve.brownout_total");
  advise_metric_ =
      obs::counter_or_null(config_.metrics, "serve.advise_queries");
  evaluations_metric_ =
      obs::counter_or_null(config_.metrics, "serve.advisor_evaluations");
  switches_metric_ =
      obs::counter_or_null(config_.metrics, "serve.policy_switches");
  queue_depth_metric_ =
      obs::gauge_or_null(config_.metrics, "serve.queue_depth");
  queue_wait_metric_ = obs::histogram_or_null(
      config_.metrics, "serve.queue_wait_seconds", request_time_buckets());
  batch_size_metric_ = obs::histogram_or_null(
      config_.metrics, "serve.batch_size", batch_size_buckets());
  tick_seconds_metric_ = obs::histogram_or_null(
      config_.metrics, "serve.tick_seconds", request_time_buckets());

  if (config_.brownout_watermark < 1.0) {
    brownout_threshold_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.brownout_watermark *
                                    static_cast<double>(queue_.capacity())));
  }

  // The advisor must exist before any journal replay: switch points fire
  // inside decide(), and recovery re-derives pre-crash switches by
  // replaying the request sequence through the same path.
  {
    advise::ShadowContext shadow;
    shadow.model = config_.model;
    shadow.machine = config_.machine;
    shadow.pricing = config_.pricing;
    shadow.first_reward = config_.first_reward;
    advisor_ = std::make_unique<advise::AdvisorEngine>(
        config_.advisor, shadow, config_.policy);
  }

  if (!config_.journal_dir.empty()) {
    recover_from_journal();
    JournalConfig journal_config;
    journal_config.directory = config_.journal_dir;
    journal_config.fsync = config_.fsync;
    journal_config.max_segment_records = config_.journal_segment_records;
    journal_config.metrics = config_.metrics;
    journal_ = std::make_unique<JournalWriter>(journal_config);
  }
}

void AdmissionEngine::recover_from_journal() {
  recovery_.attempted = true;
  const RecoveredJournal recovered = load_journal(config_.journal_dir);
  recovery_.segments = recovered.segments;
  recovery_.truncated_records = recovered.truncated_records;
  recovery_.truncated_bytes = recovered.truncated_bytes;
  if (auto* counter =
          obs::counter_or_null(config_.metrics, "serve.recovery_truncated")) {
    counter->inc(recovered.truncated_records);
  }
  if (recovered.empty()) return;
  // Replay every surviving request through the same pure decision path
  // live requests take. Decisions are a function of the request sequence
  // alone, so the replayed state — clock, policy, digest — is exactly the
  // pre-crash state.
  for (const Request& request : recovered.requests) {
    (void)decide(request);
    ++recovery_.replayed;
    if (recovery_.replayed == recovered.last_tick_processed) {
      // This is the instant the pre-crash process recorded its digest;
      // the replica must agree here, byte for byte.
      recovery_.journal_digest = recovered.last_tick_digest;
      recovery_.replayed_digest = verify::to_hex(decision_digest_.value());
      recovery_.digest_match =
          recovery_.replayed_digest == recovery_.journal_digest;
    }
  }
  if (auto* counter =
          obs::counter_or_null(config_.metrics, "serve.recovery_replayed")) {
    counter->inc(recovery_.replayed);
  }
  if (!recovery_.digest_match) {
    throw JournalError(
        "recovery digest mismatch: journal recorded " +
        recovery_.journal_digest + " after " +
        std::to_string(recovered.last_tick_processed) +
        " requests but replay produced " + recovery_.replayed_digest +
        " — refusing to serve on top of a divergent recovery");
  }
  // The journalled switch records must be a prefix of the replayed ones:
  // a crash can lose a trailing sw record whose triggering request
  // survived (replay then *re-derives* that switch), but a journalled
  // switch replay failed to reproduce means the decision streams
  // diverged.
  if (recovered.switches.size() > session_switches_.size()) {
    throw JournalError(
        "recovery switch mismatch: journal recorded " +
        std::to_string(recovered.switches.size()) +
        " policy switch(es) but replay produced only " +
        std::to_string(session_switches_.size()));
  }
  for (std::size_t i = 0; i < recovered.switches.size(); ++i) {
    const SwitchRecord& journalled = recovered.switches[i];
    const SwitchRecord& replayed = session_switches_[i];
    if (journalled.key != replayed.key || journalled.at != replayed.at ||
        journalled.from != replayed.from || journalled.to != replayed.to) {
      throw JournalError(
          "recovery switch mismatch at record " + std::to_string(i + 1) +
          ": journal has key " + verify::to_hex(journalled.key) + " " +
          journalled.from + "->" + journalled.to + " at " +
          std::to_string(journalled.at) + " but replay produced key " +
          verify::to_hex(replayed.key) + " " + replayed.from + "->" +
          replayed.to + " at " + std::to_string(replayed.at));
    }
  }
}

AdmissionEngine::~AdmissionEngine() { drain(); }

void AdmissionEngine::start() {
  if (started_.exchange(true)) return;
  thread_ = std::thread([this] { engine_loop(); });
}

bool AdmissionEngine::submit(const Request& request, Completion completion) {
  if (requests_metric_ != nullptr) requests_metric_->inc();
  // Brownout: above the high watermark the engine is already minutes of
  // decisions behind — answering busy/retry-after now is kinder (and
  // cheaper) than queueing work that will only be shed later.
  if (queue_.size() >= brownout_threshold_) {
    brownout_count_.fetch_add(1, std::memory_order_relaxed);
    if (brownout_metric_ != nullptr) brownout_metric_->inc();
    if (busy_metric_ != nullptr) busy_metric_->inc();
    return false;
  }
  Pending pending{request, std::move(completion),
                  std::chrono::steady_clock::now()};
  const bool queued = queue_.try_push(std::move(pending));
  if (!queued && busy_metric_ != nullptr) busy_metric_->inc();
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->set(static_cast<double>(queue_.size()));
  }
  return queued;
}

Response AdmissionEngine::make_busy_response(const Request& request) const {
  Response response;
  response.id = request.id;
  response.status = Status::Busy;
  response.retry_after_ms = config_.retry_after_ms;
  return response;
}

void AdmissionEngine::pause() { queue_.hold(); }

void AdmissionEngine::resume() { queue_.release(); }

void AdmissionEngine::engine_loop() {
  std::vector<Pending> batch;
  batch.reserve(config_.max_batch);
  std::vector<std::pair<Completion, Response>> completions;
  completions.reserve(config_.max_batch);
  // Group commit (FsyncPolicy::Batch): completions waiting for the fsync
  // that makes their decisions durable. Only ever non-empty while the
  // queue has backlog, so the next tick — and with it the next sync
  // opportunity — is always imminent.
  std::vector<std::pair<Completion, Response>> deferred;
  const bool group_commit =
      journal_ != nullptr && config_.fsync == FsyncPolicy::Batch;
  auto last_sync = std::chrono::steady_clock::now();
  for (;;) {
    // The hold (pause()) gate lives inside pop_wait, so a paused engine
    // consumes nothing — not even an item it was already waiting on.
    std::optional<Pending> first = queue_.pop_wait();
    if (!first.has_value()) break;  // closed and drained
    batch.clear();
    completions.clear();
    batch.push_back(std::move(*first));
    // Coalesce whatever else is already queued into this tick. Batch
    // composition only affects grouping — virtual times come from the
    // requests themselves, so decisions are batch-invariant.
    queue_.try_pop_batch(batch, config_.max_batch - 1);
    if (queue_depth_metric_ != nullptr) {
      queue_depth_metric_->set(static_cast<double>(queue_.size()));
    }
    if (batch_size_metric_ != nullptr) {
      batch_size_metric_->observe(static_cast<double>(batch.size()));
    }
    const auto tick_start = std::chrono::steady_clock::now();
    bool decided_any = false;
    for (Pending& pending : batch) {
      const auto now = std::chrono::steady_clock::now();
      if (queue_wait_metric_ != nullptr) {
        queue_wait_metric_->observe(
            std::chrono::duration<double>(now - pending.enqueued_at).count());
      }
      const Request& request = pending.request;
      // Deadline-aware shedding: a request whose wall-clock decision
      // budget ran out while it queued is answered `shed` and never
      // simulated. Sheds are a wall-clock artefact, so they stay out of
      // the journal and the decision digest — replaying the same request
      // stream without the overload reproduces the same digest.
      if (request.deadline_ms > 0.0 &&
          std::chrono::duration<double, std::milli>(now - pending.enqueued_at)
                  .count() > request.deadline_ms) {
        Response response;
        response.id = request.id;
        response.status = Status::Shed;
        response.message = "decision deadline expired in queue";
        ++stats_.shed;
        if (shed_metric_ != nullptr) shed_metric_->inc();
        completions.emplace_back(std::move(pending.completion),
                                 std::move(response));
        continue;
      }
      // Advise queries are read-only: answered from advisor state without
      // touching the journal, the decision digest or the estimators, so a
      // session's digest is invariant under however many advise queries
      // clients interleave (docs/ADVISOR.md).
      if (request.kind == RequestKind::Advise) {
        ++stats_.advise_queries;
        if (advise_metric_ != nullptr) advise_metric_->inc();
        completions.emplace_back(std::move(pending.completion),
                                 answer_advise(request));
        continue;
      }
      // Write-ahead: the request hits the journal before the simulator,
      // so every decision the digest ever covered is re-derivable from
      // disk. The fsync (under Batch) waits for the tick record below.
      if (journal_ != nullptr) journal_->append_request(request);
      decided_any = true;
      completions.emplace_back(std::move(pending.completion),
                               decide(request));
    }
    bool synced = !group_commit;
    if (journal_ != nullptr && decided_any) {
      // The tick record carries the running digest — the recovery oracle.
      // Under FsyncPolicy::Batch this is also the durability point: one
      // fsync covers the whole batch — or, while backlog persists, one
      // fsync per group_commit_ms covers several ticks whose completions
      // wait in `deferred` until it lands.
      const auto now = std::chrono::steady_clock::now();
      const bool sync_now =
          !group_commit || queue_.size() == 0 ||
          std::chrono::duration<double, std::milli>(now - last_sync)
                  .count() >= config_.group_commit_ms;
      journal_->append_tick(stats_.processed,
                            verify::to_hex(decision_digest_.value()),
                            sync_now);
      if (sync_now) {
        last_sync = now;
        synced = true;
      }
    }
    // Completions fire only after the fsync covering their tick record
    // landed: no client learns a decision the journal could still lose.
    // (A tick that only shed needs no durability — sheds are never
    // journalled — so its completions go out even mid-window.)
    if (synced) {
      for (auto& [completion, response] : deferred) {
        if (completion) completion(response);
      }
      deferred.clear();
    }
    if (synced || !decided_any) {
      for (auto& [completion, response] : completions) {
        if (completion) completion(response);
      }
    } else {
      std::move(completions.begin(), completions.end(),
                std::back_inserter(deferred));
    }
    ++stats_.batches;
    if (tick_seconds_metric_ != nullptr) {
      tick_seconds_metric_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        tick_start)
              .count());
    }
  }
  // Queue closed: make any group-committed tail durable, then release its
  // completions — drain() must never win a race against a pending fsync.
  if (!deferred.empty()) {
    if (journal_ != nullptr) journal_->sync();
    for (auto& [completion, response] : deferred) {
      if (completion) completion(response);
    }
  }
}

AdmissionEngine::TenantState& AdmissionEngine::state_for(std::uint64_t key) {
  const auto [it, inserted] = tenants_.try_emplace(key);
  TenantState& state = it->second;
  if (inserted) {
    state.simulator.logger().set_level(config_.log_level);
    state.simulator.set_metrics(config_.metrics);
    policy::PolicyContext context;
    context.simulator = &state.simulator;
    context.machine = config_.machine;
    context.model = config_.model;
    context.pricing = config_.pricing;
    context.first_reward = config_.first_reward;
    context.metrics = config_.metrics;
    context.log_level = config_.log_level;
    state.service = std::make_unique<service::ComputingService>(
        state.simulator, service::factory_for(config_.policy), context);
  }
  return state;
}

Response AdmissionEngine::decide(const Request& request) {
  // Each routing key decides inside its own isolated world, so a decision
  // depends only on its own key's prior requests — the invariant behind
  // shard-count-independent merged digests (see header comment).
  const std::uint64_t key = routing_key(request);
  TenantState& state = state_for(key);
  // The virtual clock never rewinds: a request claiming an instant the
  // engine has already passed is admitted "now" on the virtual axis.
  state.virtual_now = std::max(state.virtual_now, request.submit_time);
  const workload::Job job =
      to_job(request, state.next_job_id++, state.virtual_now);

  // Advance the world to the submission instant (starts/finishes of
  // earlier jobs fire here), then submit and dispatch the decision event.
  state.simulator.run(state.virtual_now);
  state.service->submit_all({job});
  state.simulator.run(state.virtual_now);

  const service::SlaRecord& record = state.service->metrics().record(job.id);
  Response response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.shard = config_.shard_index;
  response.virtual_time = state.virtual_now;
  response.risk = risk_index(state, job);
  if (record.accepted()) {
    response.status = Status::Accepted;
    // The commodity model fixes the charge at acceptance; the bid model
    // settles from completion time, so the budget is the price cap the
    // user is quoted.
    response.price = config_.model == economy::EconomicModel::CommodityMarket
                         ? record.quoted_cost
                         : job.budget;
    state.accepted_work += job.work();
    ++stats_.accepted;
    if (accepted_metric_ != nullptr) accepted_metric_->inc();
  } else {
    response.status = Status::Rejected;
    ++stats_.rejected;
    if (rejected_metric_ != nullptr) rejected_metric_->inc();
  }
  ++stats_.processed;
  decision_digest_.add(decision_hash(response));

  // Feed the advisor: the submitted job joins the key's rolling window
  // (accepted or not — a candidate policy might have decided differently)
  // and the key's cumulative objective values give the live estimators
  // their next sample. Pure bookkeeping — no digest impact.
  core::ObjectiveInputs live_inputs = state.settled_inputs;
  accumulate_inputs(live_inputs,
                    state.service->metrics().rolling_objective_inputs());
  advisor_->observe(key, job, core::compute_objectives(live_inputs));

  // Deterministic switch point: every effective_every() decided requests
  // of this key's own subsequence. Fires identically under live serving,
  // recovery replay and any sharding of the other keys.
  if (advisor_->at_switch_point(key)) {
    const advise::Evaluation evaluation = advisor_->evaluate(key);
    ++stats_.advisor_evaluations;
    if (evaluations_metric_ != nullptr) evaluations_metric_->inc();
    if (evaluation.switched) {
      apply_policy_switch(key, state, evaluation);
    }
  }
  return response;
}

Response AdmissionEngine::answer_advise(const Request& request) {
  Response response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.shard = config_.shard_index;
  try {
    const advise::Snapshot snapshot = advisor_->query(
        routing_key(request), request.weights, request.risk_aversion);
    response.status = Status::Advice;
    auto body = std::make_shared<AdviceBody>();
    body->active = snapshot.active;
    body->recommended = snapshot.recommended;
    body->decided = snapshot.decided;
    body->evaluations = snapshot.evaluations;
    body->switches = snapshot.switches;
    body->samples = snapshot.samples;
    body->estimate_mean = snapshot.estimate_mean;
    body->estimate_stddev = snapshot.estimate_stddev;
    body->ranked.reserve(snapshot.ranked.size());
    for (const advise::RankedPolicy& entry : snapshot.ranked) {
      body->ranked.push_back(RankedPolicyWire{entry.policy, entry.score,
                                              entry.performance,
                                              entry.volatility});
    }
    body->digest = verify::to_hex(snapshot.digest);
    response.advice = std::move(body);
  } catch (const std::exception& e) {
    response.status = Status::Error;
    response.message = std::string("advise failed: ") + e.what();
  }
  return response;
}

void AdmissionEngine::apply_policy_switch(
    std::uint64_t key, TenantState& state,
    const advise::Evaluation& evaluation) {
  // Quiesce this key's world first: the serve-path policies are
  // admission-driven, so run() drains every in-flight start/finish event
  // (the same contract drain() relies on). The old service then holds
  // only settled jobs and can be torn down safely.
  state.simulator.run();
  state.virtual_now = std::max(state.virtual_now, state.simulator.now());

  // Fold the old service's outcomes into the key's settled accumulators
  // (all ObjectiveInputs fields are additive), so live estimates and the
  // drain totals keep covering the whole session across services.
  const service::MetricsCollector& metrics = state.service->metrics();
  accumulate_inputs(state.settled_inputs, metrics.objective_inputs());
  state.settled_fulfilled +=
      metrics.outcome_count(workload::JobOutcome::FulfilledSLA);
  state.settled_violated +=
      metrics.outcome_count(workload::JobOutcome::ViolatedSLA);

  // Rebuild the service under the new policy on the same simulator: the
  // virtual clock, event counter and job-id sequence continue, the
  // admission backlog restarts from zero (everything accepted so far has
  // been delivered at quiescence).
  policy::PolicyContext context;
  context.simulator = &state.simulator;
  context.machine = config_.machine;
  context.model = config_.model;
  context.pricing = config_.pricing;
  context.first_reward = config_.first_reward;
  context.metrics = config_.metrics;
  context.log_level = config_.log_level;
  state.service = std::make_unique<service::ComputingService>(
      state.simulator, service::factory_for(evaluation.to), context);
  state.accepted_work = 0.0;

  SwitchRecord record;
  record.key = key;
  record.at = evaluation.at;
  record.from = std::string(policy::to_string(evaluation.from));
  record.to = std::string(policy::to_string(evaluation.to));
  // The switch is part of the decision stream: fold it into the digest so
  // replay/recovery must reproduce it bit-identically, and journal it
  // (live sessions only — journal_ is null during recovery replay, which
  // re-derives the same switch from the request sequence).
  decision_digest_.add(switch_event_hash(record));
  ++stats_.policy_switches;
  if (switches_metric_ != nullptr) switches_metric_->inc();
  if (journal_ != nullptr) journal_->append_switch(record);
  session_switches_.push_back(std::move(record));
}

double AdmissionEngine::risk_index(const TenantState& state,
                                   const workload::Job& job) const {
  // Outstanding backlog (accepted-but-undelivered processor-seconds, this
  // job included) relative to the capacity the machine can deliver within
  // this job's deadline window: ~0 on an idle service, ->1 as admission
  // outpaces delivery. Purely simulation-state-derived (and per routing
  // key, like the rest of the decision), so deterministic.
  const double backlog = std::max(
      0.0, state.accepted_work -
               state.service->active_policy().delivered_proc_seconds() +
               job.work());
  const double capacity = static_cast<double>(config_.machine.node_count) *
                          std::max(job.deadline_duration, 1.0);
  return std::clamp(backlog / capacity, 0.0, 1.0);
}

EngineStats AdmissionEngine::drain() {
  std::lock_guard drain_lock(drain_mutex_);
  if (drained_.load()) return stats_;
  queue_.close();
  resume();  // a paused engine must still drain
  if (started_.load() && thread_.joinable()) thread_.join();
  // Run every routing key's simulation to quiescence so accepted jobs
  // settle; the engine thread is joined, so this thread is now the (only)
  // owner of the per-key worlds.
  for (auto& [key, state] : tenants_) {
    state.simulator.run();
    state.virtual_now = std::max(state.virtual_now, state.simulator.now());
    // Jobs settled under this key's previous policies (live switches
    // rebuild the service; their outcomes live in the accumulators) plus
    // those of the current service.
    const service::MetricsCollector& metrics = state.service->metrics();
    stats_.fulfilled +=
        state.settled_fulfilled +
        metrics.outcome_count(workload::JobOutcome::FulfilledSLA);
    stats_.violated +=
        state.settled_violated +
        metrics.outcome_count(workload::JobOutcome::ViolatedSLA);
    stats_.events_dispatched += state.simulator.events_dispatched();
    stats_.virtual_end_time =
        std::max(stats_.virtual_end_time, state.virtual_now);
  }
  stats_.decision_digest = verify::to_hex(decision_digest_.value());
  stats_.digest = decision_digest_;
  stats_.brownout = brownout_count_.load(std::memory_order_relaxed);
  if (journal_ != nullptr) {
    // Seal the final segment so a later recovery verifies it wholesale
    // instead of line by line.
    journal_->close();
  }
  drained_.store(true);
  return stats_;
}

}  // namespace utilrisk::serve
