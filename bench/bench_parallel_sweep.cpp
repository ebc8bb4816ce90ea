// Sweep wall-clock by worker count: runs the same fresh (cache-bypassed)
// Table VI sweep at 1/2/4/hardware_concurrency workers, asserts
// bit-identity against a one-worker reference (every run on the calling
// thread), and writes <out>/BENCH_parallel_sweep.json (per-worker-count
// wall clock, speedup, parallel efficiency, dedup/cache statistics) so the
// perf trajectory is machine-readable.
//
// Honours REPRO_JOBS (trace size; keep it small — every worker count
// re-simulates the whole sweep) and REPRO_JOBS_PAR (top worker count).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "exp/parallel.hpp"
#include "obs/json.hpp"
#include "verify/golden.hpp"

namespace {

using namespace utilrisk;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measurement {
  std::size_t workers = 0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::size_t simulations = 0;
  bool identical_to_serial = false;
};

}  // namespace

int main() {
  bench::BenchEnv env = bench::read_env();
  // The default figure-bench trace (5000 jobs) would make four full
  // re-simulations of the sweep painfully slow; this bench is about
  // scaling shape, not absolute cost, so cap the default.
  if (std::getenv("REPRO_JOBS") == nullptr) env.jobs = 400;

  const exp::ExperimentConfig config = bench::make_config(
      env, economy::EconomicModel::BidBased, exp::ExperimentSet::B);
  const std::vector<policy::PolicyKind> policies = {
      policy::PolicyKind::Libra, policy::PolicyKind::LibraRiskD};

  std::vector<std::size_t> worker_counts = {1, 2, 4,
                                            exp::default_worker_count()};
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(
      std::unique(worker_counts.begin(), worker_counts.end()),
      worker_counts.end());

  std::cout << "parallel sweep bench: " << env.jobs << " jobs/trace, "
            << policies.size() << " policies, 12 scenarios, worker counts";
  for (std::size_t w : worker_counts) std::cout << ' ' << w;
  std::cout << "\n";

  // Reference: one worker, every run on the calling thread, with a fresh
  // in-memory store (cache-bypassed, like every measurement below).
  exp::SweepResult serial_sweep;
  double serial_wall = 0.0;
  {
    exp::ResultStore store;
    exp::ExperimentRunner runner(config, &store, 1);
    const double start = now_seconds();
    serial_sweep = runner.run_sweep(policies);
    serial_wall = now_seconds() - start;
    std::cout << "  one-worker reference: " << runner.simulations_run()
              << " simulations, " << serial_wall << " s\n";
  }
  // One comparable 64-bit value for the whole sweep; every run below must
  // reproduce it exactly (a second line of defence beside
  // bit_identical, and the value the JSON output exposes to trend tooling).
  const std::uint64_t serial_digest = verify::sweep_digest(serial_sweep);
  std::cout << "  reference sweep digest: " << verify::to_hex(serial_digest)
            << "\n";

  std::vector<Measurement> runs;
  std::size_t cells = 0;
  std::size_t unique_runs = 0;
  std::size_t deduped = 0;
  for (std::size_t workers : worker_counts) {
    exp::ResultStore store;
    exp::ExperimentRunner runner(config, &store, workers);
    const double start = now_seconds();
    const exp::SweepResult sweep = runner.run_sweep(policies);
    Measurement m;
    m.workers = workers;
    m.wall_seconds = now_seconds() - start;
    m.events = runner.stats().events;
    m.simulations = runner.stats().simulations;
    m.identical_to_serial = exp::bit_identical(sweep, serial_sweep) &&
                            verify::sweep_digest(sweep) == serial_digest;
    runs.push_back(m);
    unique_runs = runner.stats().simulations;
    deduped = runner.stats().deduped;
    cells = unique_runs + deduped + runner.stats().cache_hits;
    std::cout << "  " << workers << " worker(s): " << m.wall_seconds
              << " s, speedup " << serial_wall / m.wall_seconds
              << ", efficiency "
              << serial_wall / m.wall_seconds / static_cast<double>(workers)
              << (m.identical_to_serial ? "" : "  [MISMATCH vs reference!]")
              << "\n";
  }

  // Warm re-run at the top worker count: every cell must come from the
  // store (the cross-figure cache behaviour the figure benches rely on).
  double warm_hit_rate = 0.0;
  {
    exp::ResultStore store;
    exp::ExperimentRunner runner(config, &store, worker_counts.back());
    (void)runner.run_sweep(policies);
    exp::SweepStats before = runner.stats();
    (void)runner.run_sweep(policies);
    const std::size_t warm_cells = (before.cache_hits + before.deduped +
                                    before.simulations);
    const std::size_t warm_hits = runner.stats().cache_hits -
                                  before.cache_hits;
    warm_hit_rate = warm_cells == 0
                        ? 0.0
                        : static_cast<double>(warm_hits) /
                              static_cast<double>(warm_cells);
    std::cout << "  warm re-run cache hit rate: " << warm_hit_rate << "\n";
  }

  obs::json::Array rows;
  for (const Measurement& m : runs) {
    rows.push_back(obs::json::Object{
        {"workers", m.workers},
        {"wall_seconds", m.wall_seconds},
        {"speedup", serial_wall / m.wall_seconds},
        {"efficiency",
         serial_wall / m.wall_seconds / static_cast<double>(m.workers)},
        {"events", m.events},
        {"simulations", m.simulations},
        {"bit_identical_to_serial", m.identical_to_serial}});
  }
  const obs::json::Value out = obs::json::Object{
      {"bench", "parallel_sweep"},
      {"trace_jobs", static_cast<std::uint64_t>(env.jobs)},
      {"policies", policies.size()},
      {"matrix_cells", cells},
      {"unique_runs", unique_runs},
      {"in_flight_deduped", deduped},
      {"dedup_rate", cells == 0 ? 0.0
                                : static_cast<double>(deduped) /
                                      static_cast<double>(cells)},
      {"warm_cache_hit_rate", warm_hit_rate},
      {"sweep_digest", verify::to_hex(serial_digest)},
      {"hardware_concurrency", exp::default_worker_count()},
      {"serial_wall_seconds", serial_wall},
      {"runs", std::move(rows)}};
  const std::string path = env.out_dir + "/BENCH_parallel_sweep.json";
  std::ofstream json(path);
  out.dump(json);
  std::cout << "[wrote " << path << "]\n";

  const bool all_identical =
      std::all_of(runs.begin(), runs.end(),
                  [](const Measurement& m) { return m.identical_to_serial; });
  if (!all_identical) {
    std::cerr << "FAIL: a sweep diverged from the one-worker reference\n";
    return 1;
  }
  return 0;
}
