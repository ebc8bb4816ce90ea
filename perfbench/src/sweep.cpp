// paper_sweep: the paper's evaluation, end to end, through `exp`.
//
// One pass is the full Table VI sweep (12 scenarios x 6 values) over each
// model's Table V policies, commodity then bid, Set B, on the 5000-job
// synthetic SDSC trace, with a fresh single-threaded ExperimentRunner per
// model (no cache carried between passes). As in the paper, the trace is
// fixed and the SLA terms are synthesised: --seed seeds the QoS stream
// (deadlines, budgets, penalties, urgency). Passes repeat while another
// fits in --seconds; at least one always runs. The sweep thread is rotated
// over every CPU while it runs (cpu_rotation.hpp).
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cpu_rotation.hpp"
#include "exp/experiment.hpp"
#include "process.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "verify/golden.hpp"
#include "workloads.hpp"

namespace utilrisk::perfbench {

namespace {

constexpr std::uint32_t kSweepJobs = 5000;
constexpr int kSetupRepeats = 101;
constexpr const char* kExpectedPath = "perfbench/expected.json";
constexpr const char* kGoldenDir = "tests/golden";

bool all_finite(const exp::SweepResult& sweep) {
  for (const auto& scenario : sweep.raw) {
    for (const auto& objective : scenario) {
      for (const auto& policy : objective) {
        for (double value : policy) {
          if (!std::isfinite(value)) return false;
        }
      }
    }
  }
  return true;
}

/// The recorded sweep digest of `model` at `seed`, or "" when none is
/// recorded for that seed.
std::string expected_digest(std::uint64_t seed, const char* model) {
  std::ifstream in(kExpectedPath);
  if (!in) return {};
  std::stringstream text;
  text << in.rdbuf();
  const obs::json::Value expected = obs::json::parse(text.str());
  const obs::json::Value* sweep = expected.find("paper_sweep");
  if (sweep == nullptr ||
      static_cast<std::uint64_t>(sweep->at("seed").as_number()) != seed) {
    return {};
  }
  return sweep->at("sweep_digest").at(model).as_string();
}

}  // namespace

exp::ExperimentConfig paper_config(economy::EconomicModel model,
                                   std::uint64_t seed) {
  exp::ExperimentConfig config;
  config.model = model;
  config.set = exp::ExperimentSet::B;
  config.trace.job_count = kSweepJobs;
  config.qos_seed = seed;
  return config;
}

Outcome run_paper_sweep(const Options& options) {
  Outcome outcome;
  const economy::EconomicModel models[] = {
      economy::EconomicModel::CommodityMarket,
      economy::EconomicModel::BidBased};

  std::vector<double> pass_s;
  std::vector<double> model_s[2];
  std::vector<double> run_ms;
  std::vector<std::uint64_t> digests[2];
  std::size_t runs_per_pass = 0;
  std::uint64_t events = 0;
  std::vector<double> setup_s;
  double peak_rss = 0.0;
  const std::int64_t measure_start = now_ns();
  {  // the sweep thread is rotated over every CPU from here on
    const CpuRotation rotation;
    for (;;) {
      double pass = 0.0;
      std::size_t runs = 0;
      for (int m = 0; m < 2; ++m) {
        exp::ExperimentRunner runner(paper_config(models[m], options.seed),
                                     nullptr, 1);
        const std::int64_t start = now_ns();
        const exp::SweepResult result = runner.run_sweep();
        const double seconds = static_cast<double>(now_ns() - start) / 1e9;
        pass += seconds;
        model_s[m].push_back(seconds);
        digests[m].push_back(verify::sweep_digest(result));
        outcome.check(all_finite(result),
                      "paper_sweep: non-finite objective value");
        for (const exp::RunTiming& run : runner.stats().runs) {
          run_ms.push_back(run.wall_seconds * 1e3);
          events += run.events;
        }
        runs += runner.stats().simulations;
      }
      pass_s.push_back(pass);
      runs_per_pass = runs;
      outcome.attempted += runs;
      const double elapsed =
          static_cast<double>(now_ns() - measure_start) / 1e9;
      if (elapsed + pass > options.seconds) break;
    }
    peak_rss = proc_status_bytes(0, "VmHWM");
    // Set-up: the trace and builder every sweep starts from, timed after
    // the passes (the processor is past any idle-clock ramp) and still
    // rotated, so the repeats cover every CPU.
    for (int i = 0; i < kSetupRepeats; ++i) {
      const std::int64_t start = now_ns();
      const workload::WorkloadBuilder builder =
          paper_config(models[0], options.seed).make_builder();
      setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
      outcome.check(builder.base_trace().size() == kSweepJobs,
                    "paper_sweep: trace has the wrong job count");
    }
  }

  // Output checks.
  for (int m = 0; m < 2; ++m) {
    const std::string model = economy::to_string(models[m]);
    for (std::uint64_t digest : digests[m]) {
      outcome.check(digest == digests[m].front(),
                    "paper_sweep: " + model +
                        " sweep digest differs between passes");
    }
    const std::string hex = verify::to_hex(digests[m].front());
    const std::string expected = expected_digest(options.seed, model.c_str());
    if (!expected.empty()) {
      outcome.check(hex == expected, "paper_sweep: " + model +
                                         " sweep digest " + hex +
                                         " != recorded " + expected);
    }
  }
  std::size_t golden_records = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kGoldenDir)) {
    if (entry.path().extension() != ".tsv") continue;
    const verify::GoldenFile golden =
        verify::load_golden(entry.path().string());
    const verify::CheckReport report = verify::check_golden(golden, 1);
    golden_records += report.records_checked;
    outcome.check(report.ok(), "golden digests: " +
                                   (report.ok() ? std::string()
                                                : report.diagnostics.front()));
  }
  outcome.check(golden_records == 610,
                "golden digests: checked " + std::to_string(golden_records) +
                    " records, expected 610");

  const double jobs_per_pass =
      static_cast<double>(runs_per_pass) * kSweepJobs;
  std::vector<double> jobs_per_s;
  for (double seconds : pass_s) jobs_per_s.push_back(jobs_per_pass / seconds);
  const Tail tail = tail_percentile(run_ms);
  const std::string tail_note =
      percentile_label(tail) + " of per-run wall time";

  outcome.end_to_end.push_back(
      {"setup_s", median(setup_s), "s", setup_s.size(),
       "median trace + builder set-up"});
  outcome.end_to_end.push_back(
      {"peak_rss_mib", mib(peak_rss), "MiB", 1,
       "VmHWM of the benchmark process"});
  outcome.end_to_end.push_back(
      {"throughput_per_s", median(jobs_per_s), "1/s", jobs_per_s.size(),
       "simulated jobs per second over a sweep pass"});
  outcome.end_to_end.push_back(
      {"p50_ms", median(run_ms), "ms", run_ms.size(),
       "median wall time of one simulation run"});

  outcome.details.push_back(
      {"setup_s", median(setup_s), "s", setup_s.size(), ""});
  outcome.details.push_back({"peak_rss_mib", mib(peak_rss), "MiB", 1, ""});
  outcome.details.push_back(
      {"sweep_s", median(pass_s), "s", pass_s.size(), "both models, serial"});
  outcome.details.push_back(
      {"sweep_s.commodity", median(model_s[0]), "s", model_s[0].size(), ""});
  outcome.details.push_back(
      {"sweep_s.bid", median(model_s[1]), "s", model_s[1].size(), ""});
  outcome.details.push_back(
      {"run_p50_ms", median(run_ms), "ms", run_ms.size(),
       "one simulate_run_report"});
  outcome.details.push_back(
      {"run_tail_ms", tail.value, "ms", tail.samples, tail_note});
  outcome.details.push_back(
      {"runs_per_pass", static_cast<double>(runs_per_pass), "count",
       pass_s.size(), ""});
  const double jobs_run = static_cast<double>(run_ms.size()) * kSweepJobs;
  outcome.details.push_back({"events_per_job",
                             static_cast<double>(events) / jobs_run, "count",
                             run_ms.size(), ""});
  for (int m = 0; m < 2; ++m) {
    outcome.facts.emplace_back(
        std::string("sweep_digest.") + economy::to_string(models[m]),
        verify::to_hex(digests[m].front()));
  }
  return outcome;
}

}  // namespace utilrisk::perfbench
