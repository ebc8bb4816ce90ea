#include "serve/shard.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/metrics.hpp"

namespace utilrisk::serve {

namespace {

/// SplitMix64 finalizer: the ring positions and key placements must be
/// stable across processes, so no std::hash (implementation-defined).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::string four_digit(std::size_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04zu", value);
  return buf;
}

/// fsyncs a file, or with O_DIRECTORY the entries of a directory.
void fsync_path(const std::filesystem::path& path, int flags = 0) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | flags);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!synced) throw JournalError("cannot fsync " + path.string());
}

}  // namespace

ShardRouter::ShardRouter(std::size_t shard_count)
    : shard_count_(std::max<std::size_t>(1, shard_count)) {
  ring_.reserve(shard_count_ * kVirtualPoints);
  for (std::size_t shard = 0; shard < shard_count_; ++shard) {
    for (std::size_t point = 0; point < kVirtualPoints; ++point) {
      // Double-mix so shard 0's points are not a shifted copy of shard
      // 1's (a single pass over `shard * K + point` correlates them).
      const std::uint64_t position =
          mix64(mix64(shard + 1) ^ (point * 0x9e3779b97f4a7c15ULL));
      ring_.emplace_back(position, static_cast<std::uint32_t>(shard));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardRouter::shard_for(std::uint64_t routing_key) const {
  const std::uint64_t point = mix64(routing_key);
  // First ring position at or after the key's point, wrapping past the
  // top of the ring back to the first entry.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& entry, std::uint64_t value) { return entry.first < value; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::string shard_journal_dir(const std::string& root,
                              std::size_t shard_index) {
  return (std::filesystem::path(root) / ("shard-" + four_digit(shard_index)))
      .string();
}

void check_shard_journal_layout(const std::string& root,
                                std::size_t shard_count) {
  namespace fs = std::filesystem;
  const fs::path meta_path = fs::path(root) / "shards.meta";
  std::error_code ec;
  const bool marked = fs::exists(meta_path, ec);
  if (marked) {
    std::ifstream in(meta_path);
    std::size_t recorded = 0;
    std::string label;
    if (!(in >> label >> recorded) || label != "shards" || recorded == 0) {
      throw JournalError("unreadable shard marker " + meta_path.string());
    }
    if (recorded != shard_count) {
      throw JournalError(
          "journal " + root + " was written with --shards " +
          std::to_string(recorded) + " but the server was started with " +
          "--shards " + std::to_string(shard_count) +
          " — re-routing journalled tenants onto different shards would " +
          "change their simulation state; recover with the original shard " +
          "count or point --journal at a fresh directory");
    }
  }
  // Root segments (a flat journal, or a migration a crash cut short) and an
  // unmarked shard-0000 holding segments (a migration cut short after its
  // last rename) are one shard's history: split, they re-route its tenants.
  const fs::path shard0 = shard_journal_dir(root, 0);
  const auto flat = list_segments(root);
  const bool migrating =
      !flat.empty() || (!marked && !list_segments(shard0.string()).empty());
  if (migrating && shard_count != 1) {
    throw JournalError("journal " + root +
                       " holds a flat single-shard segment layout; refusing "
                       "to reopen it with --shards " +
                       std::to_string(shard_count));
  }
  if (flat.empty() && marked) return;
  // Segment numbers are unique, so a half-done migration resumes without
  // collisions; a collision means two histories and is refused.
  fs::create_directories(shard0, ec);
  for (const auto& [number, path] : flat) {
    const fs::path segment(path);
    const fs::path target = shard0 / segment.filename();
    if (!fs::exists(target, ec)) fs::rename(segment, target, ec);
    if (fs::exists(segment, ec)) {
      throw JournalError("cannot migrate flat journal segment " +
                         segment.string() + " to " + target.string());
    }
  }
  fsync_path(shard0, O_DIRECTORY);
  fsync_path(root, O_DIRECTORY);
  // The marker lands last and atomically: it records a finished layout.
  const fs::path temp_path = fs::path(root) / "shards.meta.tmp";
  std::ofstream out(temp_path, std::ios::trunc);
  out << "shards " << shard_count << '\n';
  out.close();
  if (out) {
    fsync_path(temp_path);
    fs::rename(temp_path, meta_path, ec);
  }
  if (!out || ec) {
    throw JournalError("cannot write shard marker " + meta_path.string());
  }
  fsync_path(root, O_DIRECTORY);
}

ShardedEngine::ShardedEngine(const ShardedEngineConfig& config)
    : router_(config.shards) {
  const std::size_t count = router_.shard_count();
  if (!config.engine.journal_dir.empty()) {
    check_shard_journal_layout(config.engine.journal_dir, count);
  }
  engines_.reserve(count);
  routed_metrics_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    EngineConfig engine_config = config.engine;
    engine_config.shard_index = static_cast<int>(i);
    if (!engine_config.journal_dir.empty()) {
      engine_config.journal_dir =
          shard_journal_dir(config.engine.journal_dir, i);
    }
    engines_.push_back(std::make_unique<AdmissionEngine>(engine_config));
    routed_metrics_.push_back(obs::counter_or_null(
        config.engine.metrics,
        "serve.shard." + std::to_string(i) + ".routed"));
  }
  if (auto* shards_gauge =
          obs::gauge_or_null(config.engine.metrics, "serve.shards")) {
    shards_gauge->set(static_cast<double>(count));
  }
}

void ShardedEngine::start() {
  for (const auto& engine : engines_) engine->start();
}

bool ShardedEngine::submit(const Request& request, Completion completion) {
  const std::size_t index = router_.shard_for(routing_key(request));
  const bool queued = engines_[index]->submit(request, std::move(completion));
  if (queued && routed_metrics_[index] != nullptr) {
    routed_metrics_[index]->inc();
  }
  return queued;
}

Response ShardedEngine::make_busy_response(const Request& request) const {
  return engines_[router_.shard_for(routing_key(request))]
      ->make_busy_response(request);
}

EngineStats ShardedEngine::drain() {
  shard_stats_.clear();
  shard_stats_.reserve(engines_.size());
  for (const auto& engine : engines_) {
    shard_stats_.push_back(engine->drain());
  }
  EngineStats merged;
  for (const EngineStats& stats : shard_stats_) {
    merged.processed += stats.processed;
    merged.accepted += stats.accepted;
    merged.rejected += stats.rejected;
    merged.fulfilled += stats.fulfilled;
    merged.violated += stats.violated;
    merged.batches += stats.batches;
    merged.events_dispatched += stats.events_dispatched;
    merged.shed += stats.shed;
    merged.brownout += stats.brownout;
    merged.advise_queries += stats.advise_queries;
    merged.advisor_evaluations += stats.advisor_evaluations;
    merged.policy_switches += stats.policy_switches;
    merged.virtual_end_time =
        std::max(merged.virtual_end_time, stats.virtual_end_time);
    merged.digest.merge(stats.digest);
  }
  merged.decision_digest = verify::to_hex(merged.digest.value());
  return merged;
}

RecoveryStats ShardedEngine::recovery() const {
  RecoveryStats merged;
  verify::UnorderedDigest digest;
  for (const auto& engine : engines_) {
    const RecoveryStats& stats = engine->recovery();
    merged.attempted = merged.attempted || stats.attempted;
    merged.replayed += stats.replayed;
    merged.digest_match = merged.digest_match && stats.digest_match;
    merged.segments += stats.segments;
    merged.truncated_records += stats.truncated_records;
    merged.truncated_bytes += stats.truncated_bytes;
    // Per-shard replay digests merge into the session digest the banner
    // prints — comparable with a pre-crash client's merged digest. (Safe
    // before start(): recovery replays on the constructing thread.)
    digest.merge(engine->decision_digest_snapshot());
  }
  if (merged.replayed > 0) {
    merged.replayed_digest = verify::to_hex(digest.value());
    merged.journal_digest = merged.replayed_digest;  // each shard verified
  }
  return merged;
}

JournalStats ShardedEngine::journal_stats() const {
  JournalStats merged;
  for (const auto& engine : engines_) {
    const JournalStats stats = engine->journal_stats();
    merged.requests += stats.requests;
    merged.ticks += stats.ticks;
    merged.switches += stats.switches;
    merged.fsyncs += stats.fsyncs;
    merged.rotations += stats.rotations;
    merged.bytes += stats.bytes;
  }
  return merged;
}

}  // namespace utilrisk::serve
