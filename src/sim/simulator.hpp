// Single-threaded discrete-event simulation kernel.
//
// This is the GridSim substitute (DESIGN.md §3): a deterministic event loop
// with a virtual clock. Entities schedule closures at future instants; the
// kernel dispatches them in (time, scheduling-order) order.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/event.hpp"
#include "sim/event_queue.hpp"
#include "sim/logger.hpp"
#include "sim/time.hpp"

namespace utilrisk::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace utilrisk::obs

namespace utilrisk::sim {

/// Thrown when an entity schedules an event in the past.
class SchedulingError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Deterministic discrete-event simulator.
///
/// Usage:
///   Simulator simk;
///   simk.schedule_at(10.0, [&]{ ... });
///   simk.run();
///
/// Invariants:
///  - the clock never moves backwards;
///  - events at the same instant fire in the order they were scheduled;
///  - run() returns when the event set is exhausted, `stop()` is called,
///    or the optional horizon is reached.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds since epoch).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `time` (>= now()).
  EventHandle schedule_at(SimTime time, EventAction action);

  /// Reserves `n` consecutive sequence numbers and returns the first.
  /// Producers that stream a known batch of events (one pending at a
  /// time) reserve the block the batch would have used if every event
  /// had been scheduled up front, then schedule each event under its
  /// reserved number: dispatch order is identical to the eager schedule.
  EventSequence reserve_sequence(std::size_t n) { return queue_.reserve(n); }

  /// Schedules `action` at `time` (>= now()) under sequence number `seq`,
  /// which must come from reserve_sequence() and be used at most once.
  EventHandle schedule_at(SimTime time, EventSequence seq,
                          EventAction action);

  /// Schedules `action` after `delay` seconds (>= 0).
  EventHandle schedule_in(SimTime delay, EventAction action);

  /// Moves the pending event behind `handle` to `time` (>= now()) in
  /// place: it keeps its action and handle and takes the next sequence
  /// number, so it dispatches exactly where a cancel + schedule_at would
  /// have put it, without leaving a tombstone. Counts as a scheduled
  /// event. Returns false, consuming no sequence number, when the handle
  /// is no longer pending (fired or cancelled).
  bool rekey(const EventHandle& handle, SimTime time);

  /// Runs until the event set drains, stop() is called, or — if `horizon`
  /// is finite — the next event would fire after `horizon` (the clock is
  /// then advanced to `horizon`). Returns the number of events dispatched
  /// by this call.
  std::uint64_t run(SimTime horizon = kTimeNever);

  /// Dispatches at most one event. Returns false when no live event remains.
  bool step();

  /// Requests the current run() to return after the in-flight event.
  void stop() { stop_requested_ = true; }

  /// True while inside run()/step() dispatch.
  [[nodiscard]] bool running() const { return running_; }

  /// Total events dispatched over the simulator's lifetime.
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return dispatched_;
  }

  /// Number of live pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Timestamp of the next pending event (kTimeNever when none).
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  /// Per-simulator trace logger.
  [[nodiscard]] Logger& logger() { return logger_; }
  [[nodiscard]] const Logger& logger() const { return logger_; }

  /// Attaches (or detaches, with nullptr) a metrics registry. The kernel
  /// resolves its instruments once here — `sim.events_scheduled` (pushes
  /// and re-keys), `sim.events_dispatched`, `sim.queue_depth`,
  /// `sim.events_per_sec` — so the per-event cost is a null check when metrics are absent or
  /// disabled. The throughput gauge is updated once per run() call (events
  /// dispatched / wall seconds); the wall clock is only read when the
  /// gauge is resolved, so un-instrumented runs never touch it.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  /// Rejects a time in the past; snaps floating-point slop to now().
  [[nodiscard]] SimTime admissible(SimTime time) const;
  void note_scheduled();

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t dispatched_ = 0;
  bool stop_requested_ = false;
  bool running_ = false;
  Logger logger_;
  obs::Counter* scheduled_metric_ = nullptr;
  obs::Counter* dispatched_metric_ = nullptr;
  obs::Gauge* queue_depth_metric_ = nullptr;
  obs::Gauge* events_per_sec_metric_ = nullptr;
};

}  // namespace utilrisk::sim
