// Tests for the sweep executor and its fan-out: thread pool and
// parallel_for_index semantics, bit-identity against a reference loop at
// every worker count, concurrent ResultStore safety and in-flight
// deduplication.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/parallel.hpp"
#include "exp/replication.hpp"
#include "exp/result_store.hpp"
#include "exp/scenario.hpp"

namespace utilrisk::exp {
namespace {

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleIsReusableBarrier) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 3);
  pool.wait_idle();  // idle pool: returns immediately
}

TEST(ThreadPoolTest, ZeroWorkerRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ParallelForIndexTest, CoversEachIndexExactlyOnce) {
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::vector<std::atomic<int>> hits(257);
    std::mutex ids_mutex;
    std::set<std::thread::id> ids;
    parallel_for_index(workers, hits.size(),
                       [&](std::size_t shard, std::size_t i) {
                         hits[i].fetch_add(1);
                         ASSERT_LT(shard, workers);
                         std::lock_guard lock(ids_mutex);
                         ids.insert(std::this_thread::get_id());
                       });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    if (workers == 1) {
      EXPECT_EQ(ids, std::set{std::this_thread::get_id()})
          << "one worker runs every index on the calling thread";
    } else {
      EXPECT_FALSE(ids.contains(std::this_thread::get_id()))
          << "a pool runs the indices on its own threads";
    }
  }
}

TEST(ParallelForIndexTest, PropagatesTheFirstException) {
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_THROW(parallel_for_index(workers, 64,
                                    [](std::size_t, std::size_t i) {
                                      if (i == 13) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
                 std::runtime_error);
  }
  // A pool survives a throwing batch.
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_index(&pool, 64,
                                  [](std::size_t, std::size_t i) {
                                    if (i == 13) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
  std::atomic<int> counter{0};
  parallel_for_index(&pool, 8,
                     [&counter](std::size_t, std::size_t) { counter++; });
  EXPECT_EQ(counter.load(), 8);
}

// ------------------------------------------------------ worker resolution

/// Sets REPRO_JOBS_PAR for one scope and restores the previous value.
class ScopedJobsPar {
 public:
  explicit ScopedJobsPar(const char* value) {
    if (const char* old = std::getenv("REPRO_JOBS_PAR")) previous_ = old;
    ::setenv("REPRO_JOBS_PAR", value, 1);
  }
  ~ScopedJobsPar() {
    if (previous_) {
      ::setenv("REPRO_JOBS_PAR", previous_->c_str(), 1);
    } else {
      ::unsetenv("REPRO_JOBS_PAR");
    }
  }

 private:
  std::optional<std::string> previous_;
};

TEST(DefaultWorkerCountTest, ReadsAPositiveReproJobsPar) {
  const ScopedJobsPar env("3");
  EXPECT_EQ(default_worker_count(), 3u);
}

TEST(DefaultWorkerCountTest, RejectsMalformedReproJobsPar) {
  for (const char* value :
       {"abc", "4abc", "0", "-2", "", "99999999999999999999999"}) {
    SCOPED_TRACE(std::string("REPRO_JOBS_PAR=") + value);
    const ScopedJobsPar env(value);
    try {
      (void)default_worker_count();
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("REPRO_JOBS_PAR"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------- sweep executor

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.model = economy::EconomicModel::BidBased;
  config.set = ExperimentSet::B;
  config.trace.job_count = 120;  // keep the sweep quick
  return config;
}

const std::vector<policy::PolicyKind> kTestPolicies = {
    policy::PolicyKind::Libra, policy::PolicyKind::FcfsBf};

std::vector<Scenario> small_scenario_set() {
  const auto& all = all_scenarios();
  return {all.begin(), all.begin() + 3};
}

/// The reference the executor is held to: every cell simulated on the
/// calling thread in matrix order (a repeated key is served from a memo),
/// then each scenario reduced. `simulations` receives the unique runs.
SweepResult reference_sweep(const ExperimentConfig& config,
                            const std::vector<Scenario>& scenarios,
                            const std::vector<policy::PolicyKind>& policies,
                            std::size_t* simulations) {
  const workload::WorkloadBuilder builder = config.make_builder();
  const RunSettings defaults = config.default_settings();
  std::map<std::string, core::ObjectiveValues> memo;
  SweepResult result;
  result.policies = policies;
  result.raw.resize(scenarios.size());
  result.separate.resize(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    result.scenario_names.push_back(scenarios[s].name);
    for (auto& per_objective : result.raw[s]) {
      per_objective.assign(policies.size(),
                           std::vector<double>(scenarios[s].values.size()));
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t v = 0; v < scenarios[s].values.size(); ++v) {
        const RunSettings settings = scenarios[s].settings_for(defaults, v);
        const std::string key = config.run_key(policies[p], settings);
        auto it = memo.find(key);
        if (it == memo.end()) {
          it = memo.emplace(key, simulate_run(config, builder, policies[p],
                                              settings))
                   .first;
        }
        for (core::Objective objective : core::kAllObjectives) {
          result.raw[s][static_cast<std::size_t>(objective)][p][v] =
              it->second.get(objective);
        }
      }
    }
    reduce_scenario(result, s, config.normalization);
  }
  *simulations = memo.size();
  return result;
}

TEST(ParallelSweepTest, BitIdenticalToSerialAcrossWorkerCounts) {
  const ExperimentConfig config = tiny_config();
  const std::vector<Scenario> scenarios = small_scenario_set();
  const RunSettings defaults = config.default_settings();

  std::size_t reference_simulations = 0;
  const SweepResult reference = reference_sweep(
      config, scenarios, kTestPolicies, &reference_simulations);

  for (std::size_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ResultStore store;
    ExperimentRunner runner(config, &store, workers);
    EXPECT_EQ(runner.worker_count(), workers);
    const SweepResult sweep =
        runner.run_scenarios(scenarios, defaults, kTestPolicies);
    EXPECT_TRUE(bit_identical(sweep, reference));
    EXPECT_EQ(runner.simulations_run(), reference_simulations)
        << "in-flight dedup must simulate each key once";
  }
}

TEST(ParallelSweepTest, ExperimentRunnerParallelPathMatchesSerial) {
  const ExperimentConfig config = tiny_config();
  const std::vector<Scenario> scenarios = small_scenario_set();
  const RunSettings defaults = config.default_settings();

  ExperimentRunner inline_runner(config, nullptr, 1);
  ExperimentRunner pooled(config, nullptr, 4);
  EXPECT_EQ(pooled.worker_count(), 4u);
  const SweepResult a =
      inline_runner.run_scenarios(scenarios, defaults, kTestPolicies);
  const SweepResult b =
      pooled.run_scenarios(scenarios, defaults, kTestPolicies);
  EXPECT_TRUE(bit_identical(a, b));
  EXPECT_EQ(inline_runner.simulations_run(), pooled.simulations_run());
  EXPECT_EQ(inline_runner.stats().deduped, pooled.stats().deduped);
  EXPECT_EQ(inline_runner.stats().cache_hits, pooled.stats().cache_hits);
}

TEST(ParallelSweepTest, InFlightDedupSimulatesSharedKeysOnce) {
  // Every value of this scenario maps to identical settings, so all six
  // cells share one cache key per policy: exactly one simulation each,
  // five coalesced in flight.
  Scenario constant;
  constant.name = "constant";
  constant.values = {1, 2, 3, 4, 5, 6};
  constant.apply = [](RunSettings&, double) {};

  const ExperimentConfig config = tiny_config();
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ResultStore store;
    ExperimentRunner runner(config, &store, workers);
    const SweepResult sweep = runner.run_scenarios(
        {constant}, config.default_settings(), kTestPolicies);
    EXPECT_EQ(runner.simulations_run(), kTestPolicies.size());
    EXPECT_EQ(runner.stats().deduped,
              kTestPolicies.size() * (constant.values.size() - 1));
    EXPECT_EQ(runner.stats().cache_hits, 0u);
    EXPECT_EQ(store.size(), kTestPolicies.size());
    // All six cells of a policy carry the same raw values.
    for (std::size_t o = 0; o < 4; ++o) {
      for (std::size_t p = 0; p < kTestPolicies.size(); ++p) {
        for (double v : sweep.raw[0][o][p]) {
          EXPECT_EQ(v, sweep.raw[0][o][p][0]);
        }
      }
    }
  }
}

TEST(ParallelSweepTest, WarmStoreServesEverythingWithoutSimulating) {
  const ExperimentConfig config = tiny_config();
  const std::vector<Scenario> scenarios = small_scenario_set();
  ResultStore store;
  ExperimentRunner first(config, &store, 4);
  const SweepResult a = first.run_scenarios(
      scenarios, config.default_settings(), kTestPolicies);
  ExperimentRunner second(config, &store, 4);
  const SweepResult b = second.run_scenarios(
      scenarios, config.default_settings(), kTestPolicies);
  EXPECT_EQ(second.simulations_run(), 0u) << "fully served from the store";
  EXPECT_TRUE(bit_identical(a, b));
}

TEST(ParallelSweepTest, TimingCountersArePopulated) {
  const ExperimentConfig config = tiny_config();
  ResultStore store;
  ExperimentRunner runner(config, &store, 2);
  (void)runner.run_scenarios(small_scenario_set(),
                             config.default_settings(), kTestPolicies);
  const SweepStats& stats = runner.stats();
  EXPECT_GT(stats.simulations, 0u);
  EXPECT_GT(stats.events, 0u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  ASSERT_EQ(stats.runs.size(), stats.simulations);
  for (const RunTiming& run : stats.runs) {
    EXPECT_FALSE(run.key.empty());
    EXPECT_GT(run.events, 0u);
    EXPECT_GE(run.wall_seconds, 0.0);
  }
}

// ----------------------------------------------- concurrent ResultStore

TEST(ConcurrentResultStoreTest, ParallelInsertsAndLookupsLoseNothing) {
  ResultStore store;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 200;
  std::atomic<int> observed_hits{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, &observed_hits, t] {
        for (int k = 0; k < kKeysPerThread; ++k) {
          // Half the keys are shared across all threads (contended
          // inserts must stay idempotent), half are thread-private.
          const bool shared = k % 2 == 0;
          const std::string key = shared
                                      ? "shared-" + std::to_string(k)
                                      : "t" + std::to_string(t) + "-" +
                                            std::to_string(k);
          const double base = shared ? k : t * 1000.0 + k;
          store.insert(key, {.wait = base,
                             .sla = base + 0.25,
                             .reliability = base + 0.5,
                             .profitability = base + 0.75});
          if (store.lookup(key).has_value()) observed_hits.fetch_add(1);
        }
      });
    }
  }
  // 100 shared keys + 8 * 100 private keys.
  EXPECT_EQ(store.size(), 100u + kThreads * 100u);
  EXPECT_EQ(observed_hits.load(), kThreads * kKeysPerThread)
      << "an insert must be immediately visible to its own thread";
  for (int k = 0; k < kKeysPerThread; k += 2) {
    const auto v = store.lookup("shared-" + std::to_string(k));
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(v->wait, k) << "first insert wins, no torn values";
  }
}

TEST(ConcurrentResultStoreTest, FileBackedConcurrentInsertsRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "utilrisk_parallel_store.csv")
          .string();
  std::remove(path.c_str());
  {
    ResultStore store(path);
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&store, t] {
        for (int k = 0; k < 50; ++k) {
          store.insert("t" + std::to_string(t) + "-" + std::to_string(k),
                       {.wait = static_cast<double>(k),
                        .sla = static_cast<double>(t),
                        .reliability = 1.0,
                        .profitability = -2.5});
        }
      });
    }
  }
  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 200u) << "no interleaved/torn lines on disk";
  EXPECT_EQ(reloaded.malformed_lines_skipped(), 0u);
  const auto v = reloaded.lookup("t3-49");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->profitability, -2.5);
  std::remove(path.c_str());
}

// ------------------------------------------------- parallel replication

TEST(ParallelReplicationTest, MatchesSerialReplication) {
  ReplicationConfig config;
  config.policy = policy::PolicyKind::Libra;
  config.model = economy::EconomicModel::BidBased;
  config.trace.job_count = 100;
  config.seeds = {42, 1001, 2002, 3003};

  config.workers = 1;
  const ReplicationSummary serial = replicate(config);
  config.workers = 4;
  const ReplicationSummary parallel = replicate(config);

  ASSERT_EQ(serial.replicates.size(), parallel.replicates.size());
  for (std::size_t i = 0; i < serial.replicates.size(); ++i) {
    EXPECT_EQ(serial.replicates[i].wait, parallel.replicates[i].wait);
    EXPECT_EQ(serial.replicates[i].sla, parallel.replicates[i].sla);
    EXPECT_EQ(serial.replicates[i].reliability,
              parallel.replicates[i].reliability);
    EXPECT_EQ(serial.replicates[i].profitability,
              parallel.replicates[i].profitability);
  }
  for (core::Objective objective : core::kAllObjectives) {
    EXPECT_EQ(serial.of(objective).mean, parallel.of(objective).mean);
    EXPECT_EQ(serial.of(objective).ci95_half,
              parallel.of(objective).ci95_half);
  }
}

}  // namespace
}  // namespace utilrisk::exp
