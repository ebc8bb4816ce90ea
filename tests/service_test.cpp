// Tests for the commercial computing service layer: SLA lifecycle
// accounting, utility settlement under both economic models, and the
// one-shot simulate() runner.
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <memory>
#include <string_view>
#include <tuple>
#include <vector>

#include "service/computing_service.hpp"
#include "sim/rng.hpp"
#include "workload/workload.hpp"

namespace utilrisk::service {
namespace {

workload::Job make_job(workload::JobId id, double submit, std::uint32_t procs,
                       double runtime, double deadline_factor,
                       double budget, double penalty_rate = 1.0) {
  workload::Job job;
  job.id = id;
  job.submit_time = submit;
  job.procs = procs;
  job.actual_runtime = runtime;
  job.estimated_runtime = runtime;
  job.deadline_duration = runtime * deadline_factor;
  job.budget = budget;
  job.penalty_rate = penalty_rate;
  return job;
}

// --------------------------------------------------------- MetricsCollector

TEST(MetricsCollectorTest, LifecycleProducesObjectiveInputs) {
  MetricsCollector metrics;
  const workload::Job a = make_job(1, 0.0, 1, 100.0, 5.0, 1000.0);
  const workload::Job b = make_job(2, 10.0, 1, 100.0, 5.0, 500.0);
  const workload::Job c = make_job(3, 20.0, 1, 100.0, 5.0, 700.0);

  metrics.record_submitted(a, 0.0);
  metrics.record_submitted(b, 10.0);
  metrics.record_submitted(c, 20.0);

  metrics.record_rejected(3, 20.0);

  metrics.record_accepted(1, 0.0, 100.0);
  metrics.record_started(1, 30.0);
  metrics.record_finished(1, 130.0, 100.0);  // within deadline 500

  metrics.record_accepted(2, 10.0, 80.0);
  metrics.record_started(2, 10.0);
  metrics.record_finished(2, 600.0, 80.0);  // deadline 510: violated

  const core::ObjectiveInputs in = metrics.objective_inputs();
  EXPECT_EQ(in.submitted, 3u);
  EXPECT_EQ(in.accepted, 2u);
  EXPECT_EQ(in.fulfilled, 1u);
  EXPECT_DOUBLE_EQ(in.wait_sum_fulfilled, 30.0);
  EXPECT_DOUBLE_EQ(in.total_budget, 2200.0);
  EXPECT_DOUBLE_EQ(in.total_utility, 180.0);
  EXPECT_EQ(metrics.unfinished_count(), 0u);

  EXPECT_EQ(metrics.record(1).outcome, workload::JobOutcome::FulfilledSLA);
  EXPECT_EQ(metrics.record(2).outcome, workload::JobOutcome::ViolatedSLA);
  EXPECT_EQ(metrics.record(3).outcome, workload::JobOutcome::Rejected);
  EXPECT_DOUBLE_EQ(metrics.record(2).deadline_delay(), 90.0);
}

TEST(MetricsCollectorTest, GuardsAgainstProtocolViolations) {
  MetricsCollector metrics;
  const workload::Job a = make_job(1, 0.0, 1, 100.0, 5.0, 1000.0);
  metrics.record_submitted(a, 0.0);
  EXPECT_THROW(metrics.record_submitted(a, 1.0), std::logic_error);
  EXPECT_THROW(metrics.record_accepted(9, 0.0, 0.0), std::logic_error);
  EXPECT_THROW(metrics.record_finished(9, 0.0, 0.0), std::logic_error);
  EXPECT_THROW((void)metrics.record(9), std::out_of_range);
}

TEST(MetricsCollectorTest, UnfinishedTracksAcceptedNotFinished) {
  MetricsCollector metrics;
  const workload::Job a = make_job(1, 0.0, 1, 100.0, 5.0, 1000.0);
  metrics.record_submitted(a, 0.0);
  metrics.record_accepted(1, 0.0, 10.0);
  EXPECT_EQ(metrics.unfinished_count(), 1u);
  metrics.record_finished(1, 50.0, 10.0);
  EXPECT_EQ(metrics.unfinished_count(), 0u);
}

// ------------------------------------------------------------- simulate()

TEST(SimulateTest, CommodityUtilityIsTheQuote) {
  // One job under FCFS-BF: quote = estimate * $1/s, earned in full even
  // though nothing is late.
  const auto report = simulate({make_job(1, 0.0, 2, 100.0, 5.0, 1000.0)},
                               policy::PolicyKind::FcfsBf,
                               economy::EconomicModel::CommodityMarket);
  EXPECT_EQ(report.inputs.fulfilled, 1u);
  EXPECT_DOUBLE_EQ(report.inputs.total_utility, 100.0);
  EXPECT_DOUBLE_EQ(report.objectives.profitability, 10.0);
}

TEST(SimulateTest, CommodityChargesQuoteEvenWhenLate) {
  // With accurate estimates the generous admission control would never
  // start a doomed job, so the late job must be an under-estimator: the
  // scheduler believes 40 s (fits the deadline), reality is 100 s.
  std::vector<workload::Job> jobs = {
      make_job(1, 0.0, 4, 1000.0, 50.0, 10000.0),
      make_job(2, 1.0, 4, 100.0, 50.0, 10000.0),
  };
  jobs[1].estimated_runtime = 40.0;
  jobs[1].deadline_duration = 1050.0;  // absolute 1051; starts at 1000
  const auto report =
      simulate(jobs, policy::PolicyKind::FcfsBf,
               economy::EconomicModel::CommodityMarket,
               {.node_count = 4});
  EXPECT_EQ(report.inputs.accepted, 2u);
  EXPECT_EQ(report.inputs.fulfilled, 1u) << "job 2 finishes at 1100 > 1051";
  // Quotes use estimates: 1000 + 40; the violated SLA still pays in full
  // (no penalty in the commodity model, §5.1).
  EXPECT_DOUBLE_EQ(report.inputs.total_utility, 1040.0);
}

TEST(SimulateTest, BidUtilityPaysBidOnTimeAndPenalisesDelay) {
  // Job 2 under-estimates (40 s believed, 100 s real): admitted at t=1000
  // because 1040 <= deadline 1046, but really finishes at 1100 — delay
  // (1100 - 1) - 1045 = 54 s at $2/s.
  std::vector<workload::Job> jobs = {
      make_job(1, 0.0, 4, 1000.0, 50.0, 5000.0, 2.0),
      make_job(2, 1.0, 4, 100.0, 50.0, 3000.0, 2.0),
  };
  jobs[1].estimated_runtime = 40.0;
  jobs[1].deadline_duration = 1045.0;
  const auto report = simulate(jobs, policy::PolicyKind::FcfsBf,
                               economy::EconomicModel::BidBased,
                               {.node_count = 4});
  EXPECT_EQ(report.inputs.fulfilled, 1u);
  EXPECT_NEAR(report.inputs.total_utility, 5000.0 + 3000.0 - 54.0 * 2.0,
              1e-6);
}

TEST(SimulateTest, RecordsAreInSubmissionOrder) {
  std::vector<workload::Job> jobs;
  for (workload::JobId id = 1; id <= 20; ++id) {
    jobs.push_back(make_job(id, id * 10.0, 1, 50.0, 5.0, 100.0));
  }
  const auto report = simulate(jobs, policy::PolicyKind::Libra,
                               economy::EconomicModel::BidBased);
  ASSERT_EQ(report.records.size(), 20u);
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].job.id, i + 1);
  }
}

TEST(SimulateTest, DeterministicAcrossRuns) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 300;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  const auto a = simulate(jobs, policy::PolicyKind::LibraRiskD,
                          economy::EconomicModel::BidBased);
  const auto b = simulate(jobs, policy::PolicyKind::LibraRiskD,
                          economy::EconomicModel::BidBased);
  EXPECT_EQ(a.inputs.accepted, b.inputs.accepted);
  EXPECT_EQ(a.inputs.fulfilled, b.inputs.fulfilled);
  EXPECT_DOUBLE_EQ(a.inputs.total_utility, b.inputs.total_utility);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
}

// --------------------------------------------------------- Streamed arrivals
//
// submit_all keeps one pending arrival per call. The contract is that the
// dispatch order is exactly the one an eager schedule of every arrival
// produces; these tests build that eager reference on a second Simulator
// and compare the two event logs entry by entry.

/// (clock, 'a'rrival or 'c'ompletion, job id) per dispatched event.
using EventLog = std::vector<std::tuple<sim::SimTime, char, workload::JobId>>;

/// Shared by both worlds: log the arrival, then run the job for its
/// actual runtime from this instant (completions tie with arrivals
/// whenever the arithmetic lands on the same instant).
void arrive_and_run(sim::Simulator& simk, EventLog& log,
                    const workload::Job& job,
                    std::function<void()> on_finish = {}) {
  log.emplace_back(simk.now(), 'a', job.id);
  simk.schedule_in(job.actual_runtime,
                   [&simk, &log, id = job.id, on_finish = std::move(on_finish)] {
                     log.emplace_back(simk.now(), 'c', id);
                     if (on_finish) on_finish();
                   });
}

/// Starts every job on arrival through arrive_and_run.
class LoggingPolicy : public policy::Policy {
 public:
  LoggingPolicy(const policy::PolicyContext& context,
                policy::PolicyHost& host, EventLog& log)
      : Policy(context, host), log_(&log) {}

  void on_submit(const workload::Job& job) override {
    host().notify_accepted(job, 0.0);
    host().notify_started(job);
    arrive_and_run(simulator(), *log_, job, [this, job] {
      host().notify_finished(job, simulator().now());
    });
  }
  [[nodiscard]] std::string_view name() const override { return "Logging"; }

 private:
  EventLog* log_;
};

/// Streams `first` through a ComputingService, runs to `pause`, streams
/// `second`, then runs to quiescence.
EventLog streamed_log(const std::vector<workload::Job>& first,
                      const std::vector<workload::Job>& second,
                      sim::SimTime pause) {
  EventLog log;
  sim::Simulator simk;
  policy::PolicyContext context;
  context.simulator = &simk;
  ComputingService svc(
      simk,
      [&log](const policy::PolicyContext& ctx, policy::PolicyHost& host) {
        return std::make_unique<LoggingPolicy>(ctx, host, log);
      },
      context);
  svc.submit_all(first);
  simk.run(pause);
  svc.submit_all(second);
  simk.run();
  EXPECT_EQ(svc.metrics().unfinished_count(), 0u);
  return log;
}

/// The same scenario with every arrival pushed into the kernel up front.
EventLog eager_log(const std::vector<workload::Job>& first,
                   const std::vector<workload::Job>& second,
                   sim::SimTime pause) {
  EventLog log;
  sim::Simulator simk;
  const auto push_all = [&](const std::vector<workload::Job>& jobs) {
    for (const workload::Job& job : jobs) {
      simk.schedule_at(job.submit_time,
                       [&simk, &log, job] { arrive_and_run(simk, log, job); });
    }
  };
  push_all(first);
  simk.run(pause);
  push_all(second);
  simk.run();
  return log;
}

TEST(StreamedArrivalTest, UnsortedTiedInputMatchesEagerOrder) {
  // Unsorted, with tied submit times; job 5 (t=0, 10 s) completes at the
  // very instant jobs 2 and 4 arrive, job 2 (t=10, 10 s) as 3 and 6 do.
  const std::vector<workload::Job> jobs = {
      make_job(1, 30.0, 1, 5.0, 5.0, 1.0),
      make_job(2, 10.0, 1, 10.0, 5.0, 1.0),
      make_job(3, 20.0, 1, 10.0, 5.0, 1.0),
      make_job(4, 10.0, 1, 20.0, 5.0, 1.0),
      make_job(5, 0.0, 1, 10.0, 5.0, 1.0),
      make_job(6, 20.0, 1, 10.0, 5.0, 1.0),
      make_job(7, 0.0, 1, 30.0, 5.0, 1.0),
  };
  const EventLog streamed = streamed_log(jobs, {}, sim::kTimeNever);
  EXPECT_EQ(streamed, eager_log(jobs, {}, sim::kTimeNever));
  ASSERT_EQ(streamed.size(), 2 * jobs.size());
  EXPECT_EQ(streamed.front(), std::make_tuple(0.0, 'a', workload::JobId{5}));
}

TEST(StreamedArrivalTest, RandomTiedArrivalsAndCompletionsMatchEagerOrder) {
  // Integer submit times and runtimes on a narrow range: nearly every
  // instant carries several arrivals and completions at once.
  sim::Rng rng(20261017);
  std::vector<workload::Job> jobs;
  for (workload::JobId id = 1; id <= 600; ++id) {
    jobs.push_back(make_job(id, static_cast<double>(rng.uniform_int(0, 60)),
                            1, static_cast<double>(rng.uniform_int(0, 12)),
                            5.0, 1.0));
  }
  EXPECT_EQ(streamed_log(jobs, {}, sim::kTimeNever),
            eager_log(jobs, {}, sim::kTimeNever));
}

TEST(StreamedArrivalTest, TwoBatchesOnOneSimulatorMatchEagerOrder) {
  // The second batch is submitted mid-run and interleaves with the
  // first: each batch orders after everything scheduled before it.
  std::vector<workload::Job> first;
  std::vector<workload::Job> second;
  for (workload::JobId id = 1; id <= 8; ++id) {
    first.push_back(make_job(id, 10.0 * static_cast<double>(id % 4), 1,
                             15.0, 5.0, 1.0));
    second.push_back(make_job(100 + id,
                              20.0 + 5.0 * static_cast<double>(id % 3), 1,
                              5.0, 5.0, 1.0));
  }
  // A hair before the pause: the kernel snaps it to now, so it must
  // queue behind the earlier-listed jobs that arrive exactly at t=20.
  second.push_back(make_job(200, 20.0 - 1e-10, 1, 5.0, 5.0, 1.0));
  EXPECT_EQ(streamed_log(first, second, 20.0),
            eager_log(first, second, 20.0));
}

TEST(StreamedArrivalTest, OnePendingArrivalPerSubmission) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 5000;
  const auto jobs =
      workload::WorkloadBuilder(trace).build(workload::QosConfig{}, 1.0, 0.0);
  ASSERT_EQ(jobs.size(), 5000u);
  sim::Simulator simk;
  policy::PolicyContext context;
  context.simulator = &simk;
  ComputingService svc(simk, policy::PolicyKind::Libra, context);
  svc.submit_all(jobs);
  EXPECT_EQ(simk.pending_events(), 1u);
}

TEST(StreamedArrivalTest, PastSubmitTimeThrowsBeforeSubmittingAnything) {
  sim::Simulator simk;
  policy::PolicyContext context;
  context.simulator = &simk;
  ComputingService svc(simk, policy::PolicyKind::Libra, context);
  simk.schedule_at(100.0, [] {});
  simk.run();
  const std::vector<workload::Job> jobs = {
      make_job(1, 150.0, 1, 10.0, 5.0, 1.0),
      make_job(2, 50.0, 1, 10.0, 5.0, 1.0),
  };
  EXPECT_THROW(svc.submit_all(jobs), sim::SchedulingError);
  EXPECT_EQ(simk.pending_events(), 0u);
  EXPECT_EQ(svc.metrics().records().size(), 0u);
}

// Integration sweep: invariants that must hold for every policy x model on
// a non-trivial workload.
struct PolicyModelCase {
  policy::PolicyKind kind;
  economy::EconomicModel model;
};

class PolicyModelInvariants
    : public ::testing::TestWithParam<PolicyModelCase> {};

TEST_P(PolicyModelInvariants, CountsAndMoneyAreConsistent) {
  const auto [kind, model] = GetParam();
  workload::SyntheticSdscConfig trace;
  trace.job_count = 400;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);

  const auto report = simulate(jobs, kind, model);

  EXPECT_EQ(report.inputs.submitted, 400u);
  EXPECT_LE(report.inputs.fulfilled, report.inputs.accepted);
  EXPECT_LE(report.inputs.accepted, report.inputs.submitted);
  EXPECT_GE(report.objectives.wait, 0.0);
  EXPECT_GE(report.objectives.sla, 0.0);
  EXPECT_LE(report.objectives.sla, 100.0);
  EXPECT_LE(report.objectives.reliability, 100.0);

  std::size_t rejected = 0;
  for (const SlaRecord& record : report.records) {
    switch (record.outcome) {
      case workload::JobOutcome::Rejected:
        ++rejected;
        EXPECT_DOUBLE_EQ(record.utility, 0.0);
        break;
      case workload::JobOutcome::FulfilledSLA:
        EXPECT_LE(record.finish_time, record.job.submit_time +
                                          record.job.deadline_duration +
                                          sim::kTimeEpsilon);
        EXPECT_GE(record.start_time, record.submit_time - sim::kTimeEpsilon);
        if (model == economy::EconomicModel::BidBased) {
          EXPECT_NEAR(record.utility, record.job.budget, 1e-9)
              << "on-time bid job earns the full bid";
        }
        break;
      case workload::JobOutcome::ViolatedSLA:
        EXPECT_GT(record.finish_time, record.job.submit_time +
                                          record.job.deadline_duration);
        if (model == economy::EconomicModel::BidBased) {
          EXPECT_LT(record.utility, record.job.budget);
        }
        break;
      case workload::JobOutcome::TerminatedSLA:
        ADD_FAILURE() << "job " << record.job.id
                      << " terminated without the ablation flag";
        break;
      case workload::JobOutcome::FailedOutage:
        ADD_FAILURE() << "job " << record.job.id
                      << " failed by outage with injection disabled";
        break;
      case workload::JobOutcome::Unfinished:
        ADD_FAILURE() << "job " << record.job.id << " never finished";
        break;
    }
    if (model == economy::EconomicModel::CommodityMarket &&
        record.accepted()) {
      EXPECT_LE(record.utility, record.job.budget + 1e-9)
          << "commodity charge is capped by the budget check";
    }
  }
  EXPECT_EQ(rejected, report.inputs.submitted - report.inputs.accepted);
}

INSTANTIATE_TEST_SUITE_P(
    TableV, PolicyModelInvariants,
    ::testing::Values(
        PolicyModelCase{policy::PolicyKind::FcfsBf,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::SjfBf,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::EdfBf,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::Libra,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::LibraDollar,
                        economy::EconomicModel::CommodityMarket},
        PolicyModelCase{policy::PolicyKind::FcfsBf,
                        economy::EconomicModel::BidBased},
        PolicyModelCase{policy::PolicyKind::EdfBf,
                        economy::EconomicModel::BidBased},
        PolicyModelCase{policy::PolicyKind::FirstReward,
                        economy::EconomicModel::BidBased},
        PolicyModelCase{policy::PolicyKind::Libra,
                        economy::EconomicModel::BidBased},
        PolicyModelCase{policy::PolicyKind::LibraRiskD,
                        economy::EconomicModel::BidBased}),
    [](const ::testing::TestParamInfo<PolicyModelCase>& info) {
      std::string name = std::string(policy::to_string(info.param.kind)) +
                         "_" + economy::to_string(info.param.model);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Behavioural cross-checks from the paper's §6 narrative on a mid-size
// workload with the trace's own (inaccurate) estimates.
TEST(PaperNarrativeTest, LibraFamilyHasZeroWait) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 400;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  for (auto kind : {policy::PolicyKind::Libra, policy::PolicyKind::LibraDollar,
                    policy::PolicyKind::LibraRiskD}) {
    const auto report =
        simulate(jobs, kind, economy::EconomicModel::CommodityMarket);
    EXPECT_DOUBLE_EQ(report.objectives.wait, 0.0)
        << policy::to_string(kind)
        << " examines jobs at submission and starts them immediately";
  }
}

TEST(PaperNarrativeTest, LibraRiskDHandlesInaccurateEstimatesBetter) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 1500;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  const auto libra =
      simulate(jobs, policy::PolicyKind::Libra,
               economy::EconomicModel::BidBased);
  const auto riskd =
      simulate(jobs, policy::PolicyKind::LibraRiskD,
               economy::EconomicModel::BidBased);
  EXPECT_GE(riskd.objectives.reliability, libra.objectives.reliability)
      << "zero-risk node selection absorbs under-estimates";
  EXPECT_GT(riskd.objectives.profitability, libra.objectives.profitability)
      << "fewer penalty payouts under inaccurate estimates";
}

TEST(PaperNarrativeTest, FirstRewardIsRiskAverse) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 800;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  const auto first_reward = simulate(jobs, policy::PolicyKind::FirstReward,
                                     economy::EconomicModel::BidBased);
  const auto edf = simulate(jobs, policy::PolicyKind::EdfBf,
                            economy::EconomicModel::BidBased);
  EXPECT_LT(first_reward.objectives.sla, edf.objectives.sla)
      << "unbounded penalties make FirstReward accept far fewer jobs";
}

TEST(PaperNarrativeTest, GenerousAdmissionKeepsBackfillReliabilityNearIdeal) {
  workload::SyntheticSdscConfig trace;
  trace.job_count = 800;
  const workload::WorkloadBuilder builder(trace);
  // Set A: accurate estimates -> reliability is exactly 100%.
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 0.0);
  for (auto kind : {policy::PolicyKind::FcfsBf, policy::PolicyKind::EdfBf,
                    policy::PolicyKind::SjfBf}) {
    const auto report =
        simulate(jobs, kind, economy::EconomicModel::CommodityMarket);
    EXPECT_DOUBLE_EQ(report.objectives.reliability, 100.0)
        << policy::to_string(kind);
  }
}

}  // namespace
}  // namespace utilrisk::service
