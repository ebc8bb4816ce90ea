#include "exp/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "exp/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "service/computing_service.hpp"
#include "workload/generator.hpp"

namespace utilrisk::exp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const char* to_string(ExperimentSet set) {
  return set == ExperimentSet::A ? "A" : "B";
}

RunSettings ExperimentConfig::default_settings() const {
  RunSettings settings;
  settings.inaccuracy_percent = set == ExperimentSet::A ? 0.0 : 100.0;
  return settings;
}

namespace {

/// Parses a workload spec and injects the experiment's job count and
/// trace seed as defaults (seed convention, workload/generator.hpp).
workload::GeneratorSpec spec_with_defaults(
    const std::string& text, const workload::SyntheticSdscConfig& trace) {
  workload::GeneratorSpec spec = workload::GeneratorSpec::parse(text);
  spec.set_default("jobs", std::to_string(trace.job_count));
  spec.set_default("seed", std::to_string(trace.seed));
  return spec;
}

}  // namespace

workload::WorkloadBuilder ExperimentConfig::make_builder() const {
  if (workload.empty()) return workload::WorkloadBuilder(trace);
  return workload::WorkloadBuilder(
      workload::generate_jobs(spec_with_defaults(workload, trace)));
}

std::vector<workload::WorkloadBuilder> ExperimentConfig::make_builders(
    std::size_t count) const {
  std::vector<workload::WorkloadBuilder> builders;
  builders.reserve(std::max<std::size_t>(count, 1));
  builders.push_back(make_builder());
  while (builders.size() < count) builders.push_back(builders.front());
  return builders;
}

// Cache-key audit note (kept current; last reviewed for `serve --shards`):
// every knob that changes a run's outcome MUST appear in this key or in
// settings.key_fragment() — PR 4 fixed exactly that class of collision for
// the --fail-* recovery knobs. Serve-only knobs (--shards, --queue-capacity,
// journal options, ...) are deliberately absent: the serving path never
// reads or writes the sweep ResultStore, and shard count cannot change
// decisions anyway (engine-level per-tenant isolation; serve/shard.hpp).
// The shard-count collision guard for *journals* — the store the serve
// path does persist — is the `shards.meta` check in serve/shard.cpp.
std::string ExperimentConfig::run_key(policy::PolicyKind policy,
                                      const RunSettings& settings) const {
  std::ostringstream oss;
  oss << "model=" << economy::to_string(model)
      << ";policy=" << policy::to_string(policy)
      << ";jobs=" << trace.job_count << ";tseed=" << trace.seed
      << ";qseed=" << qos_seed << ";nodes=" << machine.node_count
      << ";price=" << pricing.base_price << ',' << pricing.libra_gamma << ','
      << pricing.libra_delta << ',' << pricing.libra_dollar_alpha << ','
      << pricing.libra_dollar_beta << ";fr=" << first_reward.alpha << ','
      << first_reward.discount_rate_per_hour << ','
      << first_reward.slack_threshold;
  // Only when set (legacy keys must stay byte-identical).
  if (!workload.empty()) oss << ";wload=" << workload;
  oss << ';' << settings.key_fragment();
  return oss.str();
}

void write_sweep_csv(std::ostream& out, const SweepResult& sweep) {
  out << "scenario,value_index,policy,objective,raw_value\n";
  for (std::size_t s = 0; s < sweep.scenario_count(); ++s) {
    for (core::Objective objective : core::kAllObjectives) {
      const auto o = static_cast<std::size_t>(objective);
      for (std::size_t p = 0; p < sweep.policy_count(); ++p) {
        for (std::size_t v = 0; v < sweep.raw[s][o][p].size(); ++v) {
          out << sweep.scenario_names[s] << ',' << v << ','
              << policy::to_string(sweep.policies[p]) << ','
              << core::to_string(objective) << ',' << sweep.raw[s][o][p][v]
              << '\n';
        }
      }
    }
  }
}

bool bit_identical(const SweepResult& a, const SweepResult& b) {
  if (a.scenario_names != b.scenario_names || a.policies != b.policies ||
      a.raw.size() != b.raw.size() ||
      a.separate.size() != b.separate.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.raw.size(); ++s) {
    for (std::size_t o = 0; o < a.raw[s].size(); ++o) {
      if (a.raw[s][o] != b.raw[s][o]) return false;  // exact, per double
    }
    if (a.separate[s].size() != b.separate[s].size()) return false;
    for (std::size_t p = 0; p < a.separate[s].size(); ++p) {
      for (std::size_t o = 0; o < a.separate[s][p].size(); ++o) {
        if (a.separate[s][p][o].performance !=
                b.separate[s][p][o].performance ||
            a.separate[s][p][o].volatility !=
                b.separate[s][p][o].volatility) {
          return false;
        }
      }
    }
  }
  return true;
}

void SweepStats::accumulate(const SweepStats& other) {
  simulations += other.simulations;
  events += other.events;
  wall_seconds += other.wall_seconds;
  cache_hits += other.cache_hits;
  deduped += other.deduped;
  runs.insert(runs.end(), other.runs.begin(), other.runs.end());
}

core::ObjectiveValues simulate_run(const ExperimentConfig& config,
                                   const workload::WorkloadBuilder& builder,
                                   policy::PolicyKind policy,
                                   const RunSettings& settings,
                                   std::uint64_t* events_out,
                                   obs::MetricsRegistry* metrics) {
  const service::SimulationReport report =
      simulate_run_report(config, builder, policy, settings, metrics);
  if (events_out != nullptr) *events_out += report.events_dispatched;
  return report.objectives;
}

service::SimulationReport simulate_run_report(
    const ExperimentConfig& config, const workload::WorkloadBuilder& builder,
    policy::PolicyKind policy, const RunSettings& settings,
    obs::MetricsRegistry* metrics) {
  workload::QosConfig qos;
  qos.high_urgency_percent = settings.high_urgency_percent;
  qos.deadline = settings.deadline;
  qos.budget = settings.budget;
  qos.penalty = settings.penalty;
  qos.base_price = config.pricing.base_price;
  qos.seed = config.qos_seed;

  // A per-run workload spec (scenario sweeps over generator knobs)
  // replaces the shared base trace for this run only.
  std::optional<workload::WorkloadBuilder> per_run;
  if (!settings.workload.empty()) {
    per_run.emplace(workload::generate_jobs(
        spec_with_defaults(settings.workload, config.trace)));
  }
  const workload::WorkloadBuilder& active = per_run ? *per_run : builder;

  const std::vector<workload::Job> jobs = active.build(
      qos, settings.arrival_delay_factor, settings.inaccuracy_percent);

  policy::PolicyContext context;
  context.machine = config.machine;
  context.model = config.model;
  context.pricing = config.pricing;
  context.first_reward = config.first_reward;
  context.failure = settings.failure;
  context.recovery = settings.recovery;
  context.metrics = metrics;

  return service::simulate(jobs, service::factory_for(policy), context);
}

void reduce_scenario(SweepResult& result, std::size_t s,
                     const core::NormalizationConfig& normalization) {
  // Normalise per objective across policies, then reduce to separate
  // risk (eqns 5-6) per policy.
  const std::size_t policies = result.policies.size();
  result.separate[s].resize(policies);
  for (core::Objective objective : core::kAllObjectives) {
    const auto o = static_cast<std::size_t>(objective);
    const auto normalized =
        core::normalize_objective(objective, result.raw[s][o], normalization);
    for (std::size_t p = 0; p < policies; ++p) {
      result.separate[s][p][o] = core::separate_risk(normalized[p]);
    }
  }
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config, ResultStore* store,
                                   std::size_t workers)
    : config_(std::move(config)),
      builders_(config_.make_builders(workers == 0 ? default_worker_count()
                                                   : workers)),
      store_(store != nullptr ? store : &local_store_) {
  if (builders_.size() > 1) {
    pool_ = std::make_unique<ThreadPool>(builders_.size());
  }
}

ExperimentRunner::~ExperimentRunner() = default;

core::ObjectiveValues ExperimentRunner::run_one(policy::PolicyKind policy,
                                                const RunSettings& settings) {
  const std::string key = config_.run_key(policy, settings);
  if (auto cached = store_->lookup(key)) {
    ++stats_.cache_hits;
    return *cached;
  }

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t events = 0;
  const core::ObjectiveValues values =
      simulate_run(config_, builders_.front(), policy, settings, &events);
  const double elapsed = seconds_since(start);
  ++stats_.simulations;
  stats_.events += events;
  stats_.wall_seconds += elapsed;
  stats_.runs.push_back({key, elapsed, events});
  store_->insert(key, values);
  return values;
}

SweepResult ExperimentRunner::run_sweep() {
  return run_sweep(policy::policies_for_model(config_.model));
}

SweepResult ExperimentRunner::run_sweep(
    const std::vector<policy::PolicyKind>& policies) {
  return run_scenarios(all_scenarios(), config_.default_settings(),
                       policies);
}

namespace {

/// How one matrix cell obtains its objective values.
struct CellSource {
  enum class Kind { FromStore, FromJob } kind = Kind::FromJob;
  std::size_t index = 0;  ///< into `resolved` or `jobs`
};

/// One deduplicated simulation to execute (a cache miss).
struct UniqueJob {
  std::string key;
  policy::PolicyKind policy{};
  RunSettings settings;
};

}  // namespace

SweepResult ExperimentRunner::run_scenarios(
    const std::vector<Scenario>& scenarios, const RunSettings& defaults,
    const std::vector<policy::PolicyKind>& policies) {
  SweepResult result;
  result.policies = policies;
  result.scenario_names.reserve(scenarios.size());
  result.raw.resize(scenarios.size());
  result.separate.resize(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    result.scenario_names.push_back(scenarios[s].name);
    for (auto& per_objective : result.raw[s]) {
      per_objective.assign(
          policies.size(),
          std::vector<double>(scenarios[s].values.size(), 0.0));
    }
  }

  // Phase 1 (matrix order): enumerate the run matrix, resolve cells
  // against the store, and dedupe the misses by cache key — a key
  // occurring in several cells is simulated once.
  std::vector<CellSource> cells;
  std::vector<core::ObjectiveValues> resolved;
  std::vector<UniqueJob> jobs;
  std::unordered_map<std::string, CellSource> by_key;
  SweepStats local;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t v = 0; v < scenarios[s].values.size(); ++v) {
        RunSettings settings = scenarios[s].settings_for(defaults, v);
        std::string key = config_.run_key(policies[p], settings);
        if (auto it = by_key.find(key); it != by_key.end()) {
          if (it->second.kind == CellSource::Kind::FromJob) {
            ++local.deduped;  // coalesced onto a pending run
          } else {
            ++local.cache_hits;
          }
          cells.push_back(it->second);
          continue;
        }
        CellSource source;
        if (auto cached = store_->lookup(key)) {
          source = {CellSource::Kind::FromStore, resolved.size()};
          resolved.push_back(*cached);
          ++local.cache_hits;
          by_key.emplace(std::move(key), source);
        } else {
          source = {CellSource::Kind::FromJob, jobs.size()};
          by_key.emplace(key, source);
          jobs.push_back({std::move(key), policies[p], std::move(settings)});
        }
        cells.push_back(source);
      }
    }
  }

  // Phase 2: simulate the unique cache misses across the workers. Each
  // worker shard runs on its own WorkloadBuilder (and thus its own
  // simulator per run), so the single-threaded kernel contract holds;
  // results land at their job index, never shared between workers.
  std::vector<core::ObjectiveValues> job_values(jobs.size());
  std::vector<RunTiming> timings(jobs.size());
  // Executor instruments (all null when no enabled registry is hooked):
  // run/queue-wait histograms are shared across workers, the run counter
  // is per worker shard so load imbalance is visible in the snapshot.
  obs::MetricsRegistry* registry = metrics_;
  obs::Histogram* run_wall_hist = obs::histogram_or_null(
      registry, "exp.run_wall_seconds", obs::default_time_buckets());
  obs::Histogram* queue_wait_hist = obs::histogram_or_null(
      registry, "exp.task_queue_wait_seconds", obs::default_time_buckets());
  if (obs::Counter* c = obs::counter_or_null(registry, "exp.cache_hits")) {
    c->inc(local.cache_hits);
  }
  if (obs::Counter* c = obs::counter_or_null(registry, "exp.deduped")) {
    c->inc(local.deduped);
  }
  if (obs::Counter* c = obs::counter_or_null(registry, "exp.cache_misses")) {
    c->inc(jobs.size());
  }
  std::vector<obs::Counter*> shard_runs(
      std::min(worker_count(), jobs.size()));
  for (std::size_t shard = 0; shard < shard_runs.size(); ++shard) {
    shard_runs[shard] = obs::counter_or_null(
        registry, "exp.worker." + std::to_string(shard) + ".runs");
  }
  obs::ProgressReporter* progress = jobs.empty() ? nullptr : progress_;
  if (progress != nullptr) {
    progress->begin(jobs.size(), worker_count(), [this] {
      return pool_ != nullptr ? pool_->active_count() : std::size_t{1};
    });
  }
  const auto region_start = std::chrono::steady_clock::now();
  const auto run_job = [&](std::size_t shard, std::size_t j) {
    const auto start = std::chrono::steady_clock::now();
    if (queue_wait_hist != nullptr) {
      // Time this run waited before a worker picked it up, measured from
      // the fan-out instant.
      queue_wait_hist->observe(
          std::chrono::duration<double>(start - region_start).count());
    }
    std::uint64_t events = 0;
    job_values[j] = simulate_run(config_, builders_[shard], jobs[j].policy,
                                 jobs[j].settings, &events, registry);
    timings[j] = {jobs[j].key, seconds_since(start), events};
    store_->insert(jobs[j].key, job_values[j]);
    if (run_wall_hist != nullptr) {
      run_wall_hist->observe(timings[j].wall_seconds);
    }
    if (shard_runs[shard] != nullptr) shard_runs[shard]->inc();
    if (progress != nullptr) progress->note_done();
  };
  try {
    parallel_for_index(pool_.get(), jobs.size(), run_job);
  } catch (...) {
    // The reporter thread samples pool state; stop it before unwinding.
    if (progress != nullptr) progress->end();
    throw;
  }
  if (progress != nullptr) progress->end();
  local.wall_seconds = seconds_since(region_start);
  local.simulations = jobs.size();
  for (const RunTiming& timing : timings) local.events += timing.events;
  local.runs = std::move(timings);

  // Phase 3 (matrix order): scatter cell values back into the matrix and
  // reduce.
  std::size_t cell = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t v = 0; v < scenarios[s].values.size(); ++v) {
        const CellSource& source = cells[cell++];
        const core::ObjectiveValues& values =
            source.kind == CellSource::Kind::FromStore
                ? resolved[source.index]
                : job_values[source.index];
        for (core::Objective objective : core::kAllObjectives) {
          result.raw[s][static_cast<std::size_t>(objective)][p][v] =
              values.get(objective);
        }
      }
    }
    reduce_scenario(result, s, config_.normalization);
  }

  stats_.accumulate(local);
  return result;
}

}  // namespace utilrisk::exp
