// Unit tests for the discrete-event kernel: event ordering, cancellation,
// clock semantics, RNG determinism and distribution sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/distributions.hpp"
#include "sim/entity.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace utilrisk::sim {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (auto rec = queue.pop()) rec->action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFifoBySchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (auto rec = queue.pop()) rec->action();
  std::vector<int> expected(10);
  for (int i = 0; i < 10; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue queue;
  auto h1 = queue.push(1.0, [] {});
  auto h2 = queue.push(2.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(h1.cancel());
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_FALSE(h1.cancel()) << "double cancel must be a no-op";
  EXPECT_TRUE(h2.pending());
  queue.pop();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelledEventsAreSkipped) {
  EventQueue queue;
  std::vector<int> order;
  auto h = queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  h.cancel();
  while (auto rec = queue.pop()) rec->action();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventQueue queue;
  auto h = queue.push(1.0, [] {});
  queue.push(7.0, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 1.0);
  h.cancel();
  EXPECT_DOUBLE_EQ(queue.next_time(), 7.0);
}

TEST(EventQueueTest, RejectsNonFiniteTimeAndEmptyAction) {
  EventQueue queue;
  EXPECT_THROW(queue.push(kTimeNever, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.push(1.0, EventAction{}), std::invalid_argument);
}

TEST(EventQueueTest, HandleOutlivesQueueSafely) {
  EventHandle handle;
  {
    EventQueue queue;
    handle = queue.push(1.0, [] {});
  }
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(EventQueueTest, StaleHandleIgnoresRecycledSlot) {
  // After an event is popped its slot returns to the free list; a later
  // push reuses it with a bumped generation, so the old handle must see
  // neither the new event's time nor be able to cancel it.
  EventQueue queue;
  auto stale = queue.push(1.0, [] {});
  auto rec = queue.pop();
  ASSERT_TRUE(rec.has_value());
  auto fresh = queue.push(9.0, [] {});
  EXPECT_FALSE(stale.pending());
  EXPECT_FALSE(stale.cancel()) << "stale handle must not cancel the reused slot";
  EXPECT_TRUE(fresh.pending());
  EXPECT_DOUBLE_EQ(queue.next_time(), 9.0);
}

TEST(EventQueueTest, StressManyRandomEvents) {
  EventQueue queue;
  Rng rng(7);
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform(0.0, 1000.0);
    queue.push(t, [] {});
  }
  double prev = -1.0;
  while (auto rec = queue.pop()) {
    EXPECT_GE(rec->time, prev);
    prev = rec->time;
  }
}

/// Drives an EventQueue through a seeded random mix of push, cancel and
/// pop, checking every pop (time AND sequence number: the full total
/// order), size and next_time against a std::set reference model.
/// `outlier_probability` scales rare times a million-fold so the heap
/// also sees a far-future tail.
void expect_reference_pop_order(std::uint64_t seed, int pushes, double lo,
                                double hi, double outlier_probability) {
  EventQueue queue;
  std::set<std::pair<SimTime, EventSequence>> reference;
  std::vector<EventHandle> handles;
  std::vector<std::pair<SimTime, EventSequence>> keys;
  Rng rng(seed);
  int pushed = 0;
  while (pushed < pushes || !queue.empty()) {
    const double roll = rng.uniform01();
    if (pushed < pushes && roll < 0.55) {
      double t = rng.uniform(lo, hi);
      if (outlier_probability > 0.0 && rng.bernoulli(outlier_probability)) {
        t *= 1e6;
      }
      // Sequence numbers are handed out in push order.
      const auto key = std::make_pair(t, static_cast<EventSequence>(pushed));
      reference.insert(key);
      keys.push_back(key);
      handles.push_back(queue.push(t, [] {}));
      ++pushed;
    } else if (roll < 0.65 && !handles.empty()) {
      const std::size_t pick = rng.uniform_int(0, handles.size() - 1);
      const bool cancelled = handles[pick].cancel();
      ASSERT_EQ(cancelled, reference.erase(keys[pick]) == 1);
    } else {
      const auto popped = queue.pop();
      ASSERT_EQ(popped.has_value(), !reference.empty());
      if (popped) {
        const auto expected = *reference.begin();
        ASSERT_DOUBLE_EQ(popped->time, expected.first);
        ASSERT_EQ(popped->seq, expected.second);
        reference.erase(reference.begin());
      }
    }
    ASSERT_EQ(queue.size(), reference.size());
    ASSERT_DOUBLE_EQ(queue.next_time(), reference.empty()
                                            ? kTimeNever
                                            : reference.begin()->first);
  }
}

TEST(EventQueueTest, InterleavedOpsMatchReferenceOrder) {
  expect_reference_pop_order(/*seed=*/1, /*pushes=*/4000, 0.0, 1000.0,
                             /*outlier_probability=*/0.0);
}

TEST(EventQueueTest, ClusteredTimesWithOutliersMatchReferenceOrder) {
  expect_reference_pop_order(/*seed=*/2, /*pushes=*/3000, 0.0, 1.0,
                             /*outlier_probability=*/0.01);
}

TEST(EventQueueTest, BulkTombstoneSweepKeepsOrder) {
  // Cancel nine events in ten: once tombstones outnumber the live events
  // the next push sweeps them out in one pass and re-heapifies. The pop
  // order must be exactly the survivors' (time, seq) order.
  EventQueue queue;
  Rng rng(3);
  std::vector<std::pair<SimTime, EventSequence>> survivors;
  std::vector<EventHandle> doomed;
  for (EventSequence seq = 0; seq < 1000; ++seq) {
    const double t = rng.uniform(0.0, 1000.0);
    auto handle = queue.push(t, [] {});
    if (seq % 10 == 0) {
      survivors.emplace_back(t, seq);
    } else {
      doomed.push_back(handle);
    }
  }
  for (EventHandle& handle : doomed) ASSERT_TRUE(handle.cancel());
  queue.push(2000.0, [] {});
  survivors.emplace_back(2000.0, 1000);
  std::sort(survivors.begin(), survivors.end());
  ASSERT_EQ(queue.size(), survivors.size());
  for (const auto& [time, seq] : survivors) {
    const auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    ASSERT_DOUBLE_EQ(popped->time, time);
    ASSERT_EQ(popped->seq, seq);
  }
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(EventQueueTest, ReservedSequenceOrdersAsIfPushedAtReservation) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(5.0, [&] { order.push_back(0); });
  const EventSequence block = queue.reserve(2);
  queue.push(5.0, [&] { order.push_back(3); });
  // Pushed last, but carrying reserved numbers: they sort between the
  // event pushed before the reservation and the one pushed after it.
  queue.push(5.0, block + 1, [&] { order.push_back(2); });
  queue.push(5.0, block, [&] { order.push_back(1); });
  while (auto rec = queue.pop()) rec->action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_THROW(queue.push(1.0, block + 3, [] {}), std::invalid_argument)
      << "a number past every reservation was never handed out";
}

/// Drives an EventQueue through a seeded random mix of push, cancel,
/// re-key and pop against a std::set reference in which a re-key is an
/// erase plus an insert under the next sequence number. Re-keys hit the
/// head and move events to an equal, earlier or later time. Every 750
/// operations nine events in ten are cancelled at once, so tombstones come
/// to outnumber the live events and the next push sweeps them and rebuilds
/// the heap: re-keys run both among tombstones and right after a rebuild.
/// Every pop must match the reference key and run the action pushed with
/// the event.
void expect_rekey_matches_reference(std::uint64_t seed, int ops) {
  using Key = std::pair<SimTime, EventSequence>;
  EventQueue queue;
  std::set<Key> reference;
  std::vector<EventHandle> handles;
  std::vector<Key> keys;  ///< current key of each handle's event
  EventSequence next_seq = 0;
  std::size_t fired = 0;
  Rng rng(seed);
  const auto random_time = [&] { return rng.uniform(0.0, 1000.0); };
  for (int op = 0; op < ops || !queue.empty(); ++op) {
    const double roll = op < ops ? rng.uniform01() : 1.0;
    if (op < ops && op % 750 == 749) {
      for (std::size_t i = 0; i < handles.size(); ++i) {
        if (rng.bernoulli(0.9)) {
          ASSERT_EQ(handles[i].cancel(), reference.erase(keys[i]) == 1);
        }
      }
    } else if (roll < 0.45) {
      const double t = random_time();
      const std::size_t id = handles.size();
      handles.push_back(queue.push(t, [&fired, id] { fired = id; }));
      keys.emplace_back(t, next_seq++);
      reference.insert(keys.back());
    } else if (roll < 0.48 && !handles.empty()) {
      const std::size_t pick = rng.uniform_int(0, handles.size() - 1);
      ASSERT_EQ(handles[pick].cancel(), reference.erase(keys[pick]) == 1);
    } else if (roll < 0.83 && !handles.empty()) {
      std::size_t pick = rng.uniform_int(0, handles.size() - 1);
      const double mode = rng.uniform01();
      if (mode < 0.25 && !reference.empty()) {
        pick = static_cast<std::size_t>(
            std::find(keys.begin(), keys.end(), *reference.begin()) -
            keys.begin());
      }
      double t = random_time();
      if (mode >= 0.25 && mode < 0.45) t = keys[pick].first;
      const bool live = reference.erase(keys[pick]) == 1;
      ASSERT_EQ(queue.rekey(handles[pick], t), live);
      if (live) {
        keys[pick] = Key{t, next_seq++};
        reference.insert(keys[pick]);
        ASSERT_TRUE(handles[pick].pending());
        ASSERT_DOUBLE_EQ(handles[pick].time(), t);
      }
    } else {
      const auto popped = queue.pop();
      ASSERT_EQ(popped.has_value(), !reference.empty());
      if (popped) {
        const Key expected = *reference.begin();
        ASSERT_DOUBLE_EQ(popped->time, expected.first);
        ASSERT_EQ(popped->seq, expected.second);
        popped->action();
        ASSERT_EQ(keys[fired], expected) << "re-keyed event kept its action";
        reference.erase(reference.begin());
      }
    }
    ASSERT_EQ(queue.size(), reference.size());
    ASSERT_DOUBLE_EQ(queue.next_time(), reference.empty()
                                            ? kTimeNever
                                            : reference.begin()->first);
  }
  // Every sequence number went to a push or a live re-key, none to a
  // refused re-key.
  EXPECT_EQ(queue.reserve(0), next_seq);
}

TEST(EventQueueTest, RekeyMatchesEraseInsertReference) {
  expect_rekey_matches_reference(/*seed=*/11, /*ops=*/6000);
  expect_rekey_matches_reference(/*seed=*/12, /*ops=*/6000);
}

TEST(EventQueueTest, RekeyTiesOrderAfterEarlierPushes) {
  // Re-keying to an unchanged time still takes the next sequence number:
  // the event now fires after everything pushed before the re-key, as a
  // cancel + push would have it.
  EventQueue queue;
  std::vector<int> order;
  auto first = queue.push(5.0, [&] { order.push_back(0); });
  queue.push(5.0, [&] { order.push_back(1); });
  ASSERT_TRUE(queue.rekey(first, 5.0));
  queue.push(5.0, [&] { order.push_back(2); });
  while (auto rec = queue.pop()) rec->action();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueueTest, RekeyRefusesForeignAndInertHandles) {
  EventQueue queue;
  EventQueue other;
  auto foreign = other.push(1.0, [] {});
  const EventSequence next = queue.reserve(0);
  EXPECT_FALSE(queue.rekey(EventHandle{}, 1.0));
  EXPECT_FALSE(queue.rekey(foreign, 1.0));
  EXPECT_EQ(queue.reserve(0), next);
  EXPECT_DOUBLE_EQ(foreign.time(), 1.0) << "the other queue is untouched";
  auto handle = queue.push(1.0, [] {});
  EXPECT_THROW(queue.rekey(handle, kTimeNever), std::invalid_argument);
  EXPECT_DOUBLE_EQ(handle.time(), 1.0);
}

// The suite keeps the name of the calendar queue the binary heap replaced;
// the "modes" are now the heap's two insertion paths: the plain sift-up and
// the bulk tombstone sweep that rebuilds the heap in one pass.
TEST(CalendarQueuePropertyTest, TiedTimesPreserveFifoAcrossModes) {
  // All-identical timestamps: the order degenerates to the sequence
  // tiebreak, and the (time, seq) FIFO contract must survive a rebuild
  // of the heap mid-stream.
  constexpr EventSequence kTies = 2000;
  EventQueue queue;
  std::vector<EventSequence> survivors;
  std::vector<EventHandle> doomed;
  for (EventSequence seq = 0; seq < kTies; ++seq) {
    auto handle = queue.push(42.0, [] {});
    if (seq % 4 == 0) {
      survivors.push_back(seq);
    } else {
      doomed.push_back(handle);
    }
  }
  for (EventHandle& handle : doomed) ASSERT_TRUE(handle.cancel());
  // Tombstones now outnumber the live events: the next push sweeps them.
  for (EventSequence seq = kTies; seq < 2 * kTies; ++seq) {
    queue.push(42.0, [] {});
    survivors.push_back(seq);
  }
  ASSERT_EQ(queue.size(), survivors.size());
  for (const EventSequence seq : survivors) {
    const auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    ASSERT_DOUBLE_EQ(popped->time, 42.0);
    ASSERT_EQ(popped->seq, seq) << "FIFO within equal times";
  }
  EXPECT_FALSE(queue.pop().has_value());
}

// ----------------------------------------------------------------- Simulator

TEST(SimulatorTest, RunsToQuiescence) {
  Simulator simk;
  int fired = 0;
  simk.schedule_at(10.0, [&] { ++fired; });
  simk.schedule_at(20.0, [&] { ++fired; });
  EXPECT_EQ(simk.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(simk.now(), 20.0);
}

TEST(SimulatorTest, ClockAdvancesMonotonically) {
  Simulator simk;
  std::vector<double> observed;
  for (double t : {5.0, 1.0, 3.0, 1.0}) {
    simk.schedule_at(t, [&simk, &observed] { observed.push_back(simk.now()); });
  }
  simk.run();
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
  EXPECT_EQ(observed.size(), 4u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simk;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) simk.schedule_in(1.0, next);
  };
  simk.schedule_at(0.0, next);
  simk.run();
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(simk.now(), 4.0);
}

TEST(SimulatorTest, RejectsSchedulingInThePast) {
  Simulator simk;
  simk.schedule_at(10.0, [&] {
    EXPECT_THROW(simk.schedule_at(5.0, [] {}), SchedulingError);
    EXPECT_THROW(simk.schedule_at(5.0, simk.reserve_sequence(1), [] {}),
                 SchedulingError);
  });
  simk.run();
}

TEST(SimulatorTest, HorizonStopsAndAdvancesClock) {
  Simulator simk;
  int fired = 0;
  simk.schedule_at(10.0, [&] { ++fired; });
  simk.schedule_at(100.0, [&] { ++fired; });
  EXPECT_EQ(simk.run(50.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simk.now(), 50.0);
  EXPECT_EQ(simk.pending_events(), 1u);
  simk.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopRequestHaltsRun) {
  Simulator simk;
  int fired = 0;
  simk.schedule_at(1.0, [&] {
    ++fired;
    simk.stop();
  });
  simk.schedule_at(2.0, [&] { ++fired; });
  simk.run();
  EXPECT_EQ(fired, 1);
  simk.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsDispatch) {
  Simulator simk;
  int fired = 0;
  auto handle = simk.schedule_at(1.0, [&] { ++fired; });
  simk.schedule_at(0.5, [&] { handle.cancel(); });
  simk.run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, RekeyMovesPendingEvent) {
  Simulator simk;
  std::vector<double> fired_at;
  auto handle = simk.schedule_at(10.0, [&] { fired_at.push_back(simk.now()); });
  simk.schedule_at(1.0, [&] { EXPECT_TRUE(simk.rekey(handle, 4.0)); });
  simk.run();
  EXPECT_EQ(fired_at, (std::vector<double>{4.0}));
  EXPECT_EQ(simk.events_dispatched(), 2u) << "no event added or dropped";
}

TEST(SimulatorTest, RekeyRefusesFiredOrCancelledHandle) {
  Simulator simk;
  auto fired = simk.schedule_at(1.0, [] {});
  auto cancelled = simk.schedule_at(2.0, [] {});
  ASSERT_TRUE(cancelled.cancel());
  simk.run();
  const EventSequence next = simk.reserve_sequence(0);
  EXPECT_FALSE(simk.rekey(fired, 5.0));
  EXPECT_FALSE(simk.rekey(cancelled, 5.0));
  EXPECT_EQ(simk.reserve_sequence(0), next)
      << "a refused re-key consumes no sequence number";
  EXPECT_EQ(simk.pending_events(), 0u);
}

TEST(SimulatorTest, NegativeDelaySlackSnapsToNow) {
  Simulator simk;
  int fired = 0;
  simk.schedule_at(1.0, [&] {
    // Tiny negative delays from floating-point cancellation must not throw.
    simk.schedule_in(-1e-9, [&] { ++fired; });
  });
  simk.run();
  EXPECT_EQ(fired, 1);
}

// ----------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.uniform_int(0, 5)];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, kDraws / 6, kDraws / 60);
  }
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform_int(5, 1), std::invalid_argument);
}

TEST(RngTest, SplitStreamsAreIndependentOfParentConsumption) {
  Rng parent1(77);
  Rng parent2(77);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  // Children seeded identically regardless of later parent draws.
  (void)parent1();
  EXPECT_EQ(child1(), child2());
}

// --------------------------------------------------------------- Entity/Log

TEST(EntityTest, SchedulingSugarBindsToSimulator) {
  class Pinger : public Entity {
   public:
    explicit Pinger(Simulator& simk) : Entity(simk, "pinger") {}
    void ping_at(SimTime t) {
      at(t, [this] { last_ping = now(); });
    }
    void ping_after(SimTime d) {
      after(d, [this] { last_ping = now(); });
    }
    SimTime last_ping = -1.0;
  };
  Simulator simk;
  Pinger pinger(simk);
  EXPECT_EQ(pinger.name(), "pinger");
  pinger.ping_at(5.0);
  simk.run();
  EXPECT_DOUBLE_EQ(pinger.last_ping, 5.0);
  pinger.ping_after(3.0);
  simk.run();
  EXPECT_DOUBLE_EQ(pinger.last_ping, 8.0);
}

TEST(LoggerTest, LevelsGateOutput) {
  Logger log;
  std::ostringstream sink;
  log.set_sink(&sink);
  log.set_level(LogLevel::Info);
  EXPECT_TRUE(log.enabled(LogLevel::Error));
  EXPECT_TRUE(log.enabled(LogLevel::Info));
  EXPECT_FALSE(log.enabled(LogLevel::Debug));

  UTILRISK_LOG_TO(log, LogLevel::Info, 1.5, "unit", "hello " << 42);
  UTILRISK_LOG_TO(log, LogLevel::Debug, 2.0, "unit", "suppressed");

  const std::string text = sink.str();
  EXPECT_NE(text.find("[INF] t=1.5 unit: hello 42"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("suppressed"), std::string::npos);
}

TEST(LoggerTest, SimulatorOwnsItsLogger) {
  Simulator a;
  Simulator b;
  std::ostringstream sink_a;
  a.logger().set_sink(&sink_a);
  a.logger().set_level(LogLevel::Debug);
  // b stays at the default (Off); levelling a must not affect b.
  EXPECT_FALSE(b.logger().enabled(LogLevel::Error));
  UTILRISK_LOG_TO(a.logger(), LogLevel::Debug, 0.0, "kernel", "visible");
  UTILRISK_LOG_TO(b.logger(), LogLevel::Debug, 0.0, "kernel", "silent");
  EXPECT_NE(sink_a.str().find("visible"), std::string::npos);
  EXPECT_EQ(sink_a.str().find("silent"), std::string::npos);
}

TEST(LoggerTest, ParseLogLevelRoundTrips) {
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_THROW(parse_log_level("verbose"), std::invalid_argument);
  EXPECT_STREQ(to_string(LogLevel::Debug), "debug");
}

// --------------------------------------------------------------- RunningStats

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 1.25);  // population variance
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
  EXPECT_EQ(stats.count(), 4u);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

// ------------------------------------------------------------- Distributions

TEST(DistributionsTest, ExponentialMeanConverges) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(sample_exponential(rng, 100.0));
  EXPECT_NEAR(stats.mean(), 100.0, 2.0);
}

TEST(DistributionsTest, NormalMeanAndStddevConverge) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(sample_normal(rng, 10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(DistributionsTest, TruncatedNormalRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    const double x = sample_truncated_normal(rng, 0.0, 10.0, -1.0, 1.0);
    ASSERT_GE(x, -1.0);
    ASSERT_LE(x, 1.0);
  }
}

TEST(DistributionsTest, LognormalMatchesTargetMoments) {
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(sample_lognormal_mean_cv(rng, 50.0, 1.0));
  }
  EXPECT_NEAR(stats.mean(), 50.0, 1.5);
  EXPECT_NEAR(stats.stddev() / stats.mean(), 1.0, 0.1);
}

TEST(DistributionsTest, DiscreteFollowsWeights) {
  Rng rng(12);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[sample_discrete(rng, weights)];
  EXPECT_NEAR(counts[0], kDraws * 0.1, kDraws * 0.02);
  EXPECT_NEAR(counts[1], kDraws * 0.3, kDraws * 0.02);
  EXPECT_NEAR(counts[2], kDraws * 0.6, kDraws * 0.02);
}

TEST(DistributionsTest, DiscreteRejectsDegenerateWeights) {
  Rng rng(1);
  EXPECT_THROW((void)sample_discrete(rng, {}), std::invalid_argument);
  EXPECT_THROW((void)sample_discrete(rng, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)sample_discrete(rng, {-1.0, 1.0}), std::invalid_argument);
}

TEST(DistributionsTest, JobSizeWithinMachine) {
  Rng rng(14);
  for (int i = 0; i < 5000; ++i) {
    const auto size = sample_job_size(rng, 128);
    ASSERT_GE(size, 1u);
    ASSERT_LE(size, 128u);
  }
}

class ExponentialMeanSweep : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialMeanSweep, MeanTracksParameter) {
  Rng rng(21);
  RunningStats stats;
  const double mean = GetParam();
  for (int i = 0; i < 30000; ++i) stats.add(sample_exponential(rng, mean));
  EXPECT_NEAR(stats.mean() / mean, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Means, ExponentialMeanSweep,
                         ::testing::Values(0.1, 1.0, 10.0, 1969.0, 1e6));

}  // namespace
}  // namespace utilrisk::sim
