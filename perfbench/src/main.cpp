// perfbench: the utilrisk benchmark program.
//
//   perfbench --utilrisk PATH --workload NAME [--seed N] [--seconds S]
//             [--trace 0|1]
//
// NAME is paper_sweep, serve_open_journal, serve_tenants_closed, or all
// (the three in turn). --trace 0 measures the workload with tracing off
// and reports the end-to-end metrics; --trace 1 runs the traced
// per-layer pass instead. Human-readable lines come first, then one JSON
// line of details, then the result as the last line of stdout:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{"p50_ms":
//    {"value":0.21,"unit":"ms"},...}}
//
// A failed output check prints the failures on stderr, reports no
// metrics and exits 1. Debug and sanitizer builds refuse to report (exit
// 3). Run through `python3 perfbench/run.py`, which builds first.
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench = utilrisk::perfbench;

namespace {

using perfbench::Options;
using perfbench::Outcome;
namespace json = utilrisk::obs::json;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --utilrisk PATH --workload "
               "paper_sweep|serve_open_journal|serve_tenants_closed|all "
               "[--seed N] [--seconds S] [--trace 0|1]\n";
  return 2;
}

Outcome run_workload(const Options& options) {
  if (options.trace) return perfbench::run_layers(options);
  if (options.workload == "paper_sweep") {
    return perfbench::run_paper_sweep(options);
  }
  if (options.workload == "serve_open_journal") {
    return perfbench::run_serve_open_journal(options);
  }
  return perfbench::run_serve_tenants_closed(options);
}

void print_human(const Options& options, const Outcome& outcome) {
  std::cout << std::setprecision(6);
  for (const perfbench::Metric& metric : outcome.details) {
    std::cout << options.workload << "  " << std::left << std::setw(30)
              << metric.name << std::right << std::setw(14) << metric.value
              << " " << std::left << std::setw(6) << metric.unit
              << std::right << " n=" << metric.samples
              << (metric.note.empty() ? "" : "  (" + metric.note + ")")
              << "\n";
  }
  if (!outcome.layers.empty()) {
    std::cout << std::left << std::setw(30) << "per-layer metric"
              << std::right << std::setw(14) << "value" << "  "
              << std::left << std::setw(6) << "unit" << std::setw(10)
              << "layer" << std::right << std::setw(12) << "self ms"
              << "  should move -> on workload\n";
    for (const perfbench::LayerRow& row : outcome.layers) {
      std::cout << std::left << std::setw(30) << row.metric.name
                << std::right << std::setw(14) << row.metric.value << "  "
                << std::left << std::setw(6) << row.metric.unit
                << std::setw(10) << row.layer << std::right
                << std::setw(12) << row.self_ms << "  " << row.moves
                << " -> " << row.workload << "\n";
    }
  }
  for (const auto& [name, text] : outcome.facts) {
    std::cout << options.workload << "  " << name << ": " << text << "\n";
  }
}

json::Value details_json(const Options& options, const Outcome& outcome) {
  json::Value out;
  out.set("meta", perfbench::metadata(options));
  json::Value details = json::Object{};
  for (const perfbench::Metric& metric : outcome.details) {
    details.set(metric.name, perfbench::metric_json(metric, true));
  }
  out.set("details", details);
  json::Value end_to_end = json::Object{};
  for (const perfbench::Metric& metric : outcome.end_to_end) {
    end_to_end.set(metric.name, perfbench::metric_json(metric, true));
  }
  out.set("end_to_end", end_to_end);
  if (!outcome.layers.empty()) {
    json::Value layers = json::Array{};
    for (const perfbench::LayerRow& row : outcome.layers) {
      json::Value entry = perfbench::metric_json(row.metric, true);
      entry.set("name", row.metric.name);
      entry.set("layer", row.layer);
      entry.set("layer_self_ms", row.self_ms);
      entry.set("moves", row.moves);
      entry.set("on_workload", row.workload);
      layers.push_back(entry);
    }
    out.set("per_layer", layers);
  }
  json::Value facts = json::Object{};
  for (const auto& [name, text] : outcome.facts) facts.set(name, text);
  out.set("facts", facts);
  json::Value checks = json::Array{};
  for (const std::string& failure : outcome.check_failures) {
    checks.push_back(failure);
  }
  out.set("failed_checks", checks);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--utilrisk") {
      options.utilrisk = value;
    } else {
      return usage("unknown option " + std::string(flag));
    }
  }
  const bool known = options.workload == "paper_sweep" ||
                     options.workload == "serve_open_journal" ||
                     options.workload == "serve_tenants_closed" ||
                     options.workload == "all";
  if (!known) return usage("unknown workload '" + options.workload + "'");
  if (options.seconds <= 0.0) return usage("--seconds must be > 0");
  if (options.utilrisk.empty()) return usage("--utilrisk PATH is required");
  if (kSanitized || !kAssertsOff ||
      std::string_view(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::cerr << "perfbench: refusing to report from a Debug or sanitizer "
                 "build (build type '"
              << PERFBENCH_BUILD_TYPE << "')\n";
    return 3;
  }

  std::vector<std::string> workloads = {options.workload};
  if (options.workload == "all" && !options.trace) {
    workloads = {"paper_sweep", "serve_open_journal", "serve_tenants_closed"};
  }
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  json::Value metrics = json::Object{};
  for (const std::string& name : workloads) {
    Options run = options;
    run.workload = name;
    Outcome outcome;
    try {
      outcome = run_workload(run);
    } catch (const std::exception& error) {
      outcome.check(false, name + ": " + error.what());
    }
    print_human(run, outcome);
    std::cout << perfbench::compact(details_json(run, outcome)) << "\n";
    for (const std::string& failure : outcome.check_failures) {
      std::cerr << "perfbench: check failed: " << failure << "\n";
    }
    correct = correct && outcome.correct();
    attempted += outcome.attempted;
    failed += outcome.failed;
    const std::string prefix = workloads.size() > 1 ? name + "." : "";
    if (run.trace) {
      for (const perfbench::LayerRow& row : outcome.layers) {
        metrics.set(prefix + row.metric.name,
                    perfbench::metric_json(row.metric, false));
      }
    } else {
      for (const perfbench::Metric& metric : outcome.end_to_end) {
        metrics.set(prefix + metric.name,
                    perfbench::metric_json(metric, false));
      }
    }
  }

  json::Value result;
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", correct ? metrics : json::Value(json::Object{}));
  std::cout << perfbench::compact(result) << std::endl;
  return correct ? 0 : 1;
}
