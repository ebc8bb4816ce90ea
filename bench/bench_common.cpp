#include "bench_common.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace utilrisk::bench {

std::uint64_t parse_count(const char* name, std::string_view text,
                          std::uint64_t max) {
  std::uint64_t parsed = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error != std::errc() || end != text.data() + text.size() ||
      parsed == 0 || parsed > max) {
    std::cerr << "error: " << name << ": '" << text
              << "' is not a positive integer";
    if (max != std::numeric_limits<std::uint64_t>::max()) {
      std::cerr << " up to " << max;
    }
    std::cerr << "\n";
    std::exit(2);
  }
  return parsed;
}

std::uint64_t env_count(const char* name, std::uint64_t fallback,
                        std::uint64_t max) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : parse_count(name, raw, max);
}

BenchEnv read_env() {
  BenchEnv env;
  env.jobs = static_cast<std::uint32_t>(env_count(
      "REPRO_JOBS", env.jobs, std::numeric_limits<std::uint32_t>::max()));
  if (const char* fresh = std::getenv("REPRO_FRESH")) {
    env.fresh = std::string(fresh) == "1";
  }
  if (const char* out = std::getenv("REPRO_OUT")) {
    env.out_dir = out;
  }
  env.workers = exp::default_worker_count();  // honours REPRO_JOBS_PAR
  std::filesystem::create_directories(env.out_dir);
  return env;
}

exp::ExperimentConfig make_config(const BenchEnv& env,
                                  economy::EconomicModel model,
                                  exp::ExperimentSet set) {
  exp::ExperimentConfig config;
  config.model = model;
  config.set = set;
  config.trace.job_count = env.jobs;
  return config;
}

exp::ResultStore make_store(const BenchEnv& env) {
  if (env.fresh) return exp::ResultStore();
  return exp::ResultStore(env.out_dir + "/results_cache.csv");
}

std::string slugify(const std::string& title) {
  std::string slug;
  slug.reserve(title.size());
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

exp::SweepResult run_sweep(const BenchEnv& env, economy::EconomicModel model,
                           exp::ExperimentSet set, exp::ResultStore& store) {
  exp::ExperimentRunner runner(make_config(env, model, set), &store,
                               env.workers);
  const exp::SweepResult sweep = runner.run_sweep();
  const exp::SweepStats& stats = runner.stats();
  std::cout << "[sweep " << economy::to_string(model) << "/Set "
            << exp::to_string(set) << ": " << stats.simulations
            << " simulations on " << runner.worker_count() << " worker(s), "
            << stats.cache_hits << " cells from cache, " << stats.deduped
            << " deduped in flight, " << stats.events << " events in "
            << stats.wall_seconds << " s]\n";
  return sweep;
}

void emit_separate_figure(const BenchEnv& env, economy::EconomicModel model,
                          const std::string& figure_name) {
  exp::ResultStore store = make_store(env);
  for (exp::ExperimentSet set :
       {exp::ExperimentSet::A, exp::ExperimentSet::B}) {
    const exp::SweepResult sweep = run_sweep(env, model, set, store);
    for (core::Objective objective : core::kAllObjectives) {
      const std::string title =
          figure_name + " " + economy::to_string(model) + " Set " +
          exp::to_string(set) + ": " + std::string(core::to_string(objective));
      const core::RiskPlot plot = exp::separate_plot(sweep, objective, title);
      emit_plot(env, plot, slugify(title));
    }
  }
}

void emit_integrated3_figure(const BenchEnv& env,
                             economy::EconomicModel model,
                             const std::string& figure_name) {
  exp::ResultStore store = make_store(env);
  for (exp::ExperimentSet set :
       {exp::ExperimentSet::A, exp::ExperimentSet::B}) {
    const exp::SweepResult sweep = run_sweep(env, model, set, store);
    for (const auto& combo : exp::three_objective_combinations()) {
      const std::string title = figure_name + " " +
                                economy::to_string(model) + " Set " +
                                exp::to_string(set) + ": " +
                                exp::combination_label(combo);
      const core::RiskPlot plot = exp::integrated_plot(sweep, combo, title);
      emit_plot(env, plot, slugify(title));
    }
  }
}

void emit_integrated4_figure(const BenchEnv& env,
                             economy::EconomicModel model,
                             const std::string& figure_name) {
  exp::ResultStore store = make_store(env);
  const std::vector<core::Objective> all(core::kAllObjectives.begin(),
                                         core::kAllObjectives.end());
  for (exp::ExperimentSet set :
       {exp::ExperimentSet::A, exp::ExperimentSet::B}) {
    const exp::SweepResult sweep = run_sweep(env, model, set, store);
    const std::string title = figure_name + " " + economy::to_string(model) +
                              " Set " + exp::to_string(set) + ": " +
                              exp::combination_label(all);
    const core::RiskPlot plot = exp::integrated_plot(sweep, all, title);
    emit_plot(env, plot, slugify(title));
  }
}

void emit_plot(const BenchEnv& env, const core::RiskPlot& plot,
               const std::string& slug) {
  std::cout << "\n==== " << plot.title << " ====\n";
  core::write_ascii_scatter(std::cout, plot);

  const auto ranked_perf =
      core::rank_policies(plot.series, core::RankBy::BestPerformance);
  core::write_ranking_table(std::cout, ranked_perf,
                            core::RankBy::BestPerformance);

  const std::string base = env.out_dir + "/" + slug;
  std::ofstream csv(base + ".csv");
  core::write_plot_csv(csv, plot);
  std::ofstream dat(base + ".dat");
  core::write_plot_gnuplot(dat, plot);
  std::ofstream script(base + ".gp");
  core::write_gnuplot_script(script, plot, slug + ".dat", slug + ".png");
  std::cout << "[wrote " << base << ".{csv,dat,gp}]\n";
}

}  // namespace utilrisk::bench
