// The benchmark's workloads and its traced per-layer pass. Each returns
// an Outcome (report.hpp); main.cpp prints it. Why each workload exists,
// and which layer metric should move which end-to-end metric on which
// workload, is recorded in perfbench/README.md.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "report.hpp"
#include "serve/protocol.hpp"

namespace utilrisk::perfbench {

/// The full Table VI x Table V matrix, both economic models, Set B, on
/// the 5000-job synthetic SDSC trace, single-threaded, through `exp`.
[[nodiscard]] Outcome run_paper_sweep(const Options& options);

/// `utilrisk serve --policy Libra --journal DIR --fsync batch`, restarted
/// over a journalled history, driven open-loop at fixed rates and up the
/// rate ladder.
[[nodiscard]] Outcome run_serve_open_journal(const Options& options);

/// `utilrisk serve --shards 2 --policy EDF-BF`, a Zipfian 64-tenant
/// stream over 2 closed-loop connections plus read-only advise queries.
[[nodiscard]] Outcome run_serve_tenants_closed(const Options& options);

/// The traced pass: per-layer probes with spans, self time per layer and
/// the tracing overhead.
[[nodiscard]] Outcome run_layers(const Options& options);

/// One model's sweep configuration: Set B, the 5000-job synthetic SDSC
/// trace, QoS terms seeded by `seed`.
[[nodiscard]] exp::ExperimentConfig paper_config(
    economy::EconomicModel model, std::uint64_t seed);

/// A scratch directory inside the checkout, emptied on entry and removed
/// on exit.
class WorkDir {
 public:
  explicit WorkDir(std::filesystem::path path);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  [[nodiscard]] std::string path(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// Arguments of `utilrisk serve` on a Unix socket, manifests off.
[[nodiscard]] std::vector<std::string> serve_args(
    const std::string& socket, std::vector<std::string> extra);

/// Parses "[recovered N journalled request(s); digest D]"; false when
/// the line does not have that shape.
bool parse_recovery_banner(const std::string& line, std::uint64_t& replayed,
                           std::string& digest);

/// "<n> requests, <t> ticks, <f> fsyncs, <r> rotations, <b> bytes" (the
/// drain summary's journal line) -> the number before `word`; 0 if absent.
[[nodiscard]] double summary_count(const std::string& text,
                                   const std::string& word);

/// Mebibytes.
[[nodiscard]] inline double mib(double bytes) {
  return bytes / (1024.0 * 1024.0);
}

}  // namespace utilrisk::perfbench
