// Pending-event set: a binary min-heap ordered by (time, sequence) over
// slab-pooled records. Cancellation is tombstone-based O(1); tombstones
// are purged when they reach the top, or all at once when they outnumber
// the live events.
//
// The heap stays small by construction: ComputingService::submit_all
// streams its arrivals (one pending arrival per call, DESIGN.md §4), so
// the live set is bounded by in-flight jobs plus O(1) per service rather
// than by the length of the workload.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace utilrisk::sim {

/// An event removed from the queue, ready to dispatch.
struct PoppedEvent {
  SimTime time = 0.0;
  EventSequence seq = 0;
  EventAction action;
};

/// Min-queue of pending events. Not thread-safe: the kernel is
/// single-threaded by design (deterministic replay is a core requirement
/// for the experiment cache; see DESIGN.md §4). Parallelism lives one
/// layer up, in exp/parallel.hpp, with one kernel per worker.
///
/// Records live in a slab pool owned by the queue and are recycled after
/// they fire, so the steady-state hot path performs no per-event heap
/// allocation.
class EventQueue {
 public:
  EventQueue();
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event with the next sequence number. `time` must be
  /// finite.
  EventHandle push(SimTime time, EventAction action);

  /// Inserts an event under a sequence number previously handed out by
  /// reserve(); each reserved number may be used at most once. Throws
  /// std::invalid_argument for a number that was never reserved.
  EventHandle push(SimTime time, EventSequence seq, EventAction action);

  /// Reserves `n` consecutive sequence numbers and returns the first. An
  /// event later pushed under a reserved number orders exactly as if it
  /// had been pushed at reservation time.
  EventSequence reserve(std::size_t n);

  /// True if no live (uncancelled) events remain.
  [[nodiscard]] bool empty() const { return *live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return *live_; }

  /// Timestamp of the earliest live event; kTimeNever when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest live event, or nullopt when empty.
  /// Tombstoned entries encountered on the way are discarded.
  std::optional<PoppedEvent> pop();

  /// Drops every pending event.
  void clear();

  /// Total events ever pushed (diagnostics).
  [[nodiscard]] std::uint64_t total_pushed() const { return total_pushed_; }

 private:
  /// Heap slot: the (time, seq) key is copied inline so sifting compares
  /// within the contiguous array instead of chasing record pointers.
  struct Entry {
    SimTime time;
    EventSequence seq;
    detail::EventRecord* rec;
  };

  static void validate(SimTime time, const EventAction& action);
  EventHandle insert(SimTime time, EventSequence seq, EventAction action);
  void recycle(detail::EventRecord* rec);
  [[nodiscard]] detail::EventRecord* acquire();
  [[nodiscard]] static bool before(const Entry& a, const Entry& b);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void drop_dead_top();
  /// Recycles every tombstone and re-heapifies (Floyd, O(n)).
  void compact();

  std::deque<detail::EventRecord> pool_;        ///< stable slab storage
  std::vector<detail::EventRecord*> free_;      ///< recycled slots
  std::vector<Entry> heap_;  ///< live events plus not-yet-purged tombstones
  /// Live-event counter, shared (weakly) with handles: expiry doubles as
  /// the "queue still alive" token for handles that outlive the queue.
  std::shared_ptr<std::size_t> live_;
  EventSequence next_seq_ = 0;
  std::uint64_t total_pushed_ = 0;
};

}  // namespace utilrisk::sim
