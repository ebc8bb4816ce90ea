#include "sim/event_queue.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace utilrisk::sim {

EventQueue::EventQueue() : live_(std::make_shared<std::size_t>(0)) {}

EventQueue::~EventQueue() = default;
// Handles hold only a weak_ptr to live_ plus a generation stamp, so the
// queue (and its record slab) can die with handles outstanding: their
// weak_ptr expires and they degrade to inert.

bool EventQueue::before(const Entry& a, const Entry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

detail::EventRecord* EventQueue::acquire() {
  if (!free_.empty()) {
    detail::EventRecord* rec = free_.back();
    free_.pop_back();
    return rec;
  }
  return &pool_.emplace_back();
}

void EventQueue::recycle(detail::EventRecord* rec) {
  ++rec->generation;  // invalidate outstanding handles to this slot
  rec->action = nullptr;
  rec->cancelled = false;
  free_.push_back(rec);
}

void EventQueue::validate(SimTime time, const EventAction& action) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument("EventQueue::push: non-finite event time");
  }
  if (!action) {
    throw std::invalid_argument("EventQueue::push: empty action");
  }
}

EventHandle EventQueue::push(SimTime time, EventAction action) {
  validate(time, action);
  return insert(time, next_seq_++, std::move(action));
}

EventHandle EventQueue::push(SimTime time, EventSequence seq,
                             EventAction action) {
  validate(time, action);
  if (seq >= next_seq_) {
    throw std::invalid_argument(
        "EventQueue::push: sequence number was never reserved");
  }
  return insert(time, seq, std::move(action));
}

EventSequence EventQueue::reserve(std::size_t n) {
  const EventSequence first = next_seq_;
  next_seq_ += n;
  return first;
}

EventHandle EventQueue::insert(SimTime time, EventSequence seq,
                               EventAction action) {
  detail::EventRecord* rec = acquire();
  rec->time = time;
  rec->seq = seq;
  rec->action = std::move(action);
  rec->cancelled = false;
  EventHandle handle{std::weak_ptr<std::size_t>(live_), rec, rec->generation};
  ++*live_;
  heap_.push_back({time, seq, rec});
  sift_up(heap_.size() - 1);
  // Cancellation-heavy phases would otherwise let tombstones deepen every
  // sift; sweep them once they dominate.
  if (heap_.size() > 2 * *live_ + 64) compact();
  return handle;
}

bool EventQueue::rekey(const EventHandle& handle, SimTime time) {
  // Owner equality (no atomic lock): a handle sharing this queue's token
  // points into this queue's slab, which is alive while `this` is.
  if (handle.live_.owner_before(live_) || live_.owner_before(handle.live_)) {
    return false;
  }
  detail::EventRecord* rec = handle.record_;
  if (rec == nullptr || rec->generation != handle.generation_ ||
      rec->cancelled) {
    return false;
  }
  if (!std::isfinite(time)) {
    throw std::invalid_argument("EventQueue::rekey: non-finite event time");
  }
  rec->time = time;
  rec->seq = next_seq_++;
  const std::size_t i = rec->slot;
  assert(i < heap_.size() && heap_[i].rec == rec);
  heap_[i].time = time;
  heap_[i].seq = rec->seq;
  if (i > 0 && before(heap_[i], heap_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
  return true;
}

void EventQueue::remove_top() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  place(0, last);
  sift_down(0);
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && heap_.front().rec->cancelled) {
    detail::EventRecord* dead = heap_.front().rec;
    remove_top();
    recycle(dead);
  }
}

SimTime EventQueue::next_time() const {
  if (*live_ == 0) return kTimeNever;
  if (!heap_.front().rec->cancelled) return heap_.front().time;
  // Front is a tombstone (purged on the next pop); scan for the earliest
  // live record. Rare path: only hit between a cancel of the head event
  // and the next pop.
  SimTime best = kTimeNever;
  for (const Entry& entry : heap_) {
    if (!entry.rec->cancelled && entry.time < best) best = entry.time;
  }
  return best;
}

std::optional<PoppedEvent> EventQueue::pop() {
  drop_dead_top();
  if (heap_.empty()) {
    assert(*live_ == 0);
    return std::nullopt;
  }
  detail::EventRecord* top = heap_.front().rec;
  remove_top();
  assert(!top->cancelled);
  assert(*live_ > 0);
  --*live_;
  PoppedEvent popped{top->time, top->seq, std::move(top->action)};
  recycle(top);
  drop_dead_top();
  return popped;
}

void EventQueue::clear() {
  for (const Entry& entry : heap_) recycle(entry.rec);
  heap_.clear();
  *live_ = 0;
}

void EventQueue::place(std::size_t i, const Entry& entry) {
  heap_[i] = entry;
  entry.rec->slot = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_up(std::size_t i) {
  const Entry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(moving, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, moving);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry moving = heap_[i];
  for (;;) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    const std::size_t child =
        right < n && before(heap_[right], heap_[left]) ? right : left;
    if (!before(heap_[child], moving)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, moving);
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& entry) {
    if (!entry.rec->cancelled) return false;
    recycle(entry.rec);
    return true;
  });
  for (std::size_t i = 0; i < heap_.size(); ++i) place(i, heap_[i]);
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

}  // namespace utilrisk::sim
