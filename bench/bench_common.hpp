// Shared plumbing for the figure-regeneration benches.
//
// Environment knobs:
//   REPRO_JOBS      job count of the synthetic trace (default 5000)
//   REPRO_FRESH     set to 1 to bypass the on-disk result cache
//   REPRO_OUT       output directory for .csv/.dat artefacts
//                   (default ./bench_out)
//   REPRO_JOBS_PAR  worker threads for the sweep fan-out
//                   (default hardware_concurrency())
//
// Numeric knobs must be whole positive decimal integers; anything else
// stops the bench with a message naming the knob.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/parallel.hpp"

namespace utilrisk::bench {

struct BenchEnv {
  std::uint32_t jobs = 5000;
  bool fresh = false;
  std::string out_dir = "bench_out";
  std::size_t workers = 0;  ///< 0 = REPRO_JOBS_PAR / hardware_concurrency
};

/// Reads the environment knobs (creating the output directory).
[[nodiscard]] BenchEnv read_env();

/// `text` as the value of knob `name`: a whole positive decimal integer
/// no larger than `max` — the rule exp::default_worker_count applies to
/// REPRO_JOBS_PAR. Anything else ends the bench with exit status 2 and a
/// message naming the knob.
[[nodiscard]] std::uint64_t parse_count(
    const char* name, std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// parse_count of environment variable `name`, `fallback` when unset.
[[nodiscard]] std::uint64_t env_count(
    const char* name, std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Experiment configuration shared by every figure bench: the defaults of
/// DESIGN.md §3 with the requested model/set.
[[nodiscard]] exp::ExperimentConfig make_config(const BenchEnv& env,
                                                economy::EconomicModel model,
                                                exp::ExperimentSet set);

/// Shared on-disk result store ("<out_dir>/results_cache.csv"), or an
/// in-memory store when `fresh` is set.
[[nodiscard]] exp::ResultStore make_store(const BenchEnv& env);

/// Prints the plot (ASCII scatter + ranking tables) to stdout and writes
/// <out_dir>/<slug>.csv and <slug>.dat.
void emit_plot(const BenchEnv& env, const core::RiskPlot& plot,
               const std::string& slug);

/// Lowercase, filesystem-safe slug of a title.
[[nodiscard]] std::string slugify(const std::string& title);

/// Runs (or loads from cache) the full Table VI sweep for one model/set,
/// fanning cache misses out across env.workers threads and printing the
/// wall-clock / events-processed counters.
[[nodiscard]] exp::SweepResult run_sweep(const BenchEnv& env,
                                         economy::EconomicModel model,
                                         exp::ExperimentSet set,
                                         exp::ResultStore& store);

/// Emits the separate-risk figure (paper Figs 3 / 6): one panel per
/// objective per experiment set.
void emit_separate_figure(const BenchEnv& env, economy::EconomicModel model,
                          const std::string& figure_name);

/// Emits the integrated three-objective figure (Figs 4 / 7): four
/// leave-one-out panels per experiment set.
void emit_integrated3_figure(const BenchEnv& env,
                             economy::EconomicModel model,
                             const std::string& figure_name);

/// Emits the integrated four-objective figure (Figs 5 / 8).
void emit_integrated4_figure(const BenchEnv& env,
                             economy::EconomicModel model,
                             const std::string& figure_name);

}  // namespace utilrisk::bench
