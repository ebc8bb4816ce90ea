// What one benchmark run found, and how it is printed.
//
// Every workload fills an Outcome: output checks, request/run counts,
// the gated end-to-end metrics, the named detail metrics (with sample
// counts) and, in the traced pass, the per-layer table. All
// machine-readable output goes through obs::json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace utilrisk::perfbench {

/// Scratch space of a run (journals, sockets), inside the checkout.
inline constexpr const char* kWorkDir = ".bench_work";

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  std::string utilrisk;                   ///< path of the utilrisk binary
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< measurements behind the value
  std::string note;         ///< how it was measured (one line)
};

/// One per-layer row of the traced pass.
struct LayerRow {
  Metric metric;
  std::string layer;      ///< the layer whose self time the row sits in
  double self_ms = 0.0;   ///< that layer's self time in the traced pass
  std::string moves;      ///< end-to-end metric(s) it should move
  std::string workload;   ///< ... on this workload
};

struct Outcome {
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< BENCHMARK.json's gated set
  std::vector<Metric> details;     ///< every named end-to-end metric
  std::vector<LayerRow> layers;    ///< traced pass only
  /// Named strings worth printing (digests, the rate ladder's verdicts).
  std::vector<std::pair<std::string, std::string>> facts;

  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return check_failures.empty(); }
};

/// One-line (compact) serialisation of an obs::json value.
[[nodiscard]] std::string compact(const obs::json::Value& value);

[[nodiscard]] obs::json::Value metric_json(const Metric& metric,
                                           bool with_evidence);

/// Run metadata: commit, build type, nproc, workload, seed, seconds and
/// the open-loop rate ladder.
[[nodiscard]] obs::json::Value metadata(const Options& options);

}  // namespace utilrisk::perfbench
