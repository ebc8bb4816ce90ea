#include "sim/simulator.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"

namespace utilrisk::sim {

void Simulator::set_metrics(obs::MetricsRegistry* registry) {
  scheduled_metric_ =
      obs::counter_or_null(registry, "sim.events_scheduled");
  dispatched_metric_ =
      obs::counter_or_null(registry, "sim.events_dispatched");
  queue_depth_metric_ = obs::gauge_or_null(registry, "sim.queue_depth");
  events_per_sec_metric_ =
      obs::gauge_or_null(registry, "sim.events_per_sec");
}

SimTime Simulator::admissible(SimTime time) const {
  if (time < now_ - kTimeEpsilon) {
    throw SchedulingError("Simulator::schedule_at: event in the past (t=" +
                          std::to_string(time) +
                          ", now=" + std::to_string(now_) + ")");
  }
  // Snap barely-in-the-past times (floating point slop from rate
  // integration) to "now" so they still fire.
  return time < now_ ? now_ : time;
}

void Simulator::note_scheduled() {
  if (scheduled_metric_ != nullptr) scheduled_metric_->inc();
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->set(static_cast<double>(queue_.size()));
  }
}

EventHandle Simulator::schedule_at(SimTime time, EventAction action) {
  auto handle = queue_.push(admissible(time), std::move(action));
  note_scheduled();
  return handle;
}

EventHandle Simulator::schedule_at(SimTime time, EventSequence seq,
                                   EventAction action) {
  auto handle = queue_.push(admissible(time), seq, std::move(action));
  note_scheduled();
  return handle;
}

bool Simulator::rekey(const EventHandle& handle, SimTime time) {
  if (!queue_.rekey(handle, admissible(time))) return false;
  note_scheduled();
  return true;
}

EventHandle Simulator::schedule_in(SimTime delay, EventAction action) {
  delay = clamp_nonnegative(delay);
  if (delay < 0.0) {
    throw SchedulingError("Simulator::schedule_in: negative delay " +
                          std::to_string(delay));
  }
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::step() {
  auto rec = queue_.pop();
  if (!rec) return false;
  now_ = rec->time;
  running_ = true;
  ++dispatched_;
  if (dispatched_metric_ != nullptr) dispatched_metric_->inc();
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->set(static_cast<double>(queue_.size()));
  }
  // Move the action out so self-cancellation during dispatch is harmless.
  EventAction action = std::move(rec->action);
  action();
  running_ = false;
  return true;
}

std::uint64_t Simulator::run(SimTime horizon) {
  stop_requested_ = false;
  // Wall timing only when the throughput gauge is wired up: the clock
  // reads bracket the whole run, so the un-instrumented hot loop is
  // untouched either way.
  const bool timed = events_per_sec_metric_ != nullptr;
  const auto wall_start =
      timed ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point{};
  std::uint64_t n = 0;
  for (;;) {
    if (stop_requested_) break;
    const SimTime next = queue_.next_time();
    if (next == kTimeNever) break;
    if (next > horizon) {
      now_ = horizon;
      break;
    }
    if (!step()) break;
    ++n;
  }
  if (timed && n > 0) {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    if (wall > 0.0) {
      events_per_sec_metric_->set(static_cast<double>(n) / wall);
    }
  }
  return n;
}

}  // namespace utilrisk::sim
