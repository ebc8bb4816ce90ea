#include "report.hpp"

#include <thread>

#include "obs/manifest.hpp"
#include "open_loop.hpp"

namespace utilrisk::perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

std::string compact(const obs::json::Value& value) {
  // obs::json pretty-prints; strings never hold a raw newline (they are
  // escaped), so dropping each newline with the indentation after it
  // yields the same document on one line.
  const std::string pretty = value.dump_string();
  std::string out;
  out.reserve(pretty.size());
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] == '\n') {
      while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
      continue;
    }
    out.push_back(pretty[i]);
  }
  return out;
}

obs::json::Value metric_json(const Metric& metric, bool with_evidence) {
  obs::json::Value entry;
  entry.set("value", metric.value);
  entry.set("unit", metric.unit);
  if (with_evidence) {
    entry.set("samples", static_cast<std::uint64_t>(metric.samples));
    if (!metric.note.empty()) entry.set("note", metric.note);
  }
  return entry;
}

obs::json::Value metadata(const Options& options) {
  obs::json::Value meta;
  meta.set("commit", obs::build_git_describe());
  meta.set("build_type", PERFBENCH_BUILD_TYPE);
  meta.set("nproc",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  meta.set("workload", options.workload);
  meta.set("seed", options.seed);
  meta.set("seconds", options.seconds);
  meta.set("trace", options.trace);
  obs::json::Value ladder = obs::json::Array{};
  for (double rate : kLadderRates) ladder.push_back(rate);
  meta.set("open_loop_rates", obs::json::Object{{"light", kLightRate},
                                                {"heavy", kHeavyRate},
                                                {"ladder", ladder}});
  meta.set("started_at_utc", obs::utc_timestamp_now());
  return meta;
}

}  // namespace utilrisk::perfbench
