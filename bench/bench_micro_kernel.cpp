// Micro benchmarks of the simulator hot paths: event queue churn, in-place
// re-keying, the time-shared proportional-share integrator, and a full
// small simulation per policy.
#include <benchmark/benchmark.h>

#include <array>

#include "cluster/reservation.hpp"
#include "cluster/time_shared.hpp"
#include "core/integrated_risk.hpp"
#include "core/normalization.hpp"
#include "service/computing_service.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace {

using namespace utilrisk;

// Slab-pool event records (unique ownership + generation handles)
// replaced the per-event shared_ptr allocation; same machine, same
// build: 5.11 -> 7.85 M items/s at n=1024 and 3.42 -> 4.24 M items/s
// at n=16384.
void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (double t : times) queue.push(t, [] {});
    while (auto rec = queue.pop()) benchmark::DoNotOptimize(rec->time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 10)->Arg(1 << 14);

// Reschedule-heavy hold model, the time-shared executor's pattern: n live
// events; each step moves one random live event to a new time, pops the
// earliest and pushes its replacement, so n stays constant. The second
// argument picks how the move is made: 1 re-keys the event in place, 0
// cancels it and pushes a fresh one (leaving a tombstone to purge). Both
// consume the same sequence numbers and pop in the same order.
void BM_EventQueueRescheduleHold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool in_place = state.range(1) != 0;
  sim::EventQueue queue;
  sim::Rng rng(5);
  std::size_t fired = 0;
  const auto action_for = [&fired](std::size_t i) {
    return [&fired, i] { fired = i; };
  };
  std::vector<sim::EventHandle> handles(n);
  for (std::size_t i = 0; i < n; ++i) {
    handles[i] = queue.push(rng.uniform(0.0, 1000.0), action_for(i));
  }
  double now = 0.0;
  for (auto _ : state) {
    const std::size_t pick = rng.uniform_int(0, n - 1);
    const double time = now + rng.uniform(0.0, 1000.0);
    if (in_place) {
      queue.rekey(handles[pick], time);
    } else {
      handles[pick].cancel();
      handles[pick] = queue.push(time, action_for(pick));
    }
    auto popped = queue.pop();
    now = popped->time;
    popped->action();
    handles[fired] =
        queue.push(now + rng.uniform(0.0, 1000.0), action_for(fired));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(in_place ? "rekey" : "cancel+push");
}
BENCHMARK(BM_EventQueueRescheduleHold)
    ->ArgsProduct({{1 << 10, 1 << 14}, {0, 1}});

void BM_TimeSharedChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simk;
    cluster::TimeSharedCluster cluster(simk, {.node_count = 16});
    sim::Rng rng(3);
    for (std::uint32_t i = 1; i <= 200; ++i) {
      workload::Job job;
      job.id = i;
      job.procs = 1 + static_cast<std::uint32_t>(rng.uniform_int(0, 3));
      job.actual_runtime = rng.uniform(100.0, 1000.0);
      job.estimated_runtime = job.actual_runtime;
      job.deadline_duration = job.actual_runtime * 8.0;
      job.submit_time = rng.uniform(0.0, 5000.0);
      simk.schedule_at(job.submit_time, [&cluster, job] {
        std::vector<cluster::NodeId> nodes;
        const double share =
            job.estimated_runtime / job.deadline_duration;
        for (cluster::NodeId n = 0;
             n < cluster.node_count() && nodes.size() < job.procs; ++n) {
          if (cluster.committed_share(n) + share <= 1.0) nodes.push_back(n);
        }
        if (nodes.size() == job.procs) {
          cluster.start(job, nodes, share, {});
        }
      });
    }
    simk.run();
    benchmark::DoNotOptimize(simk.events_dispatched());
  }
}
BENCHMARK(BM_TimeSharedChurn);

void BM_FullSimulation(benchmark::State& state) {
  const auto kind = static_cast<policy::PolicyKind>(state.range(0));
  workload::SyntheticSdscConfig trace;
  trace.job_count = 500;
  const workload::WorkloadBuilder builder(trace);
  const auto jobs = builder.build(workload::QosConfig{}, 0.25, 100.0);
  for (auto _ : state) {
    const auto report = service::simulate(
        jobs, kind, economy::EconomicModel::BidBased);
    benchmark::DoNotOptimize(report.inputs.fulfilled);
  }
  state.SetLabel(std::string(policy::to_string(kind)));
}
BENCHMARK(BM_FullSimulation)
    ->Arg(static_cast<int>(policy::PolicyKind::FcfsBf))
    ->Arg(static_cast<int>(policy::PolicyKind::EdfBf))
    ->Arg(static_cast<int>(policy::PolicyKind::Libra))
    ->Arg(static_cast<int>(policy::PolicyKind::LibraRiskD))
    ->Arg(static_cast<int>(policy::PolicyKind::FirstReward));

void BM_ReservationTimeline(benchmark::State& state) {
  const auto bookings = static_cast<int>(state.range(0));
  sim::Rng rng(11);
  std::vector<std::array<double, 3>> plan;
  for (int i = 0; i < bookings; ++i) {
    const double start = rng.uniform(0.0, 1e6);
    plan.push_back({start, start + rng.uniform(100.0, 1e4),
                    rng.uniform(0.05, 0.3)});
  }
  for (auto _ : state) {
    cluster::ReservationTimeline timeline;
    for (const auto& [start, end, share] : plan) {
      timeline.book(start, end, share);
    }
    double acc = 0.0;
    for (const auto& [start, end, share] : plan) {
      acc += timeline.max_committed(start, end);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bookings) *
                          state.iterations());
}
BENCHMARK(BM_ReservationTimeline)->Arg(100)->Arg(1000);

void BM_RiskAnalysisPipeline(benchmark::State& state) {
  // Normalise + separate + integrate for a 5-policy x 12-scenario sweep
  // worth of synthetic raw values: the analysis cost per figure.
  sim::Rng rng(13);
  std::vector<std::vector<double>> raw(5, std::vector<double>(6));
  for (auto& row : raw) {
    for (double& v : row) v = rng.uniform(0.0, 100.0);
  }
  const auto weights = core::equal_weights(4);
  for (auto _ : state) {
    double acc = 0.0;
    for (int scenario = 0; scenario < 12; ++scenario) {
      const auto norm =
          core::normalize_objective(core::Objective::Sla, raw, {});
      std::vector<core::RiskPoint> separate;
      for (const auto& row : norm) {
        separate.push_back(core::separate_risk(row));
      }
      separate.resize(4);
      acc += core::integrated_risk(separate, weights).performance;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RiskAnalysisPipeline);

}  // namespace

BENCHMARK_MAIN();
