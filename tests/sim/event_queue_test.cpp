#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace pipo {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.pending(), 3u);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(7, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents) {
  struct Chain {
    EventQueue* q;
    int* fired;
    void operator()() const {
      ++*fired;
      if (*fired < 5) q->schedule_in(10, *this);
    }
  };
  static_assert(sizeof(Chain) == EventQueue::kInlineBytes);
  EventQueue q;
  int fired = 0;
  q.schedule(0, Chain{&q, &fired});
  q.run_all();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_one());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ChainedSameTickEventsRunBeforeLaterTicks) {
  // A callback that schedules at now() adds to the current tick: the new
  // event runs after the events already pending on that tick and before
  // any later tick.
  EventQueue q;
  std::vector<int> order;
  q.schedule(20, [&] {
    order.push_back(0);
    q.schedule(20, [&] { order.push_back(2); });
  });
  q.schedule(20, [&] { order.push_back(1); });
  q.schedule(21, [&] { order.push_back(3); });
  EXPECT_EQ(q.run_active(21), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 21u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunActiveExecutesTheCrossingEvent) {
  // run_active(stop) keeps going while now() < stop, so the event that
  // crosses the stop tick still executes (a started access completes) —
  // the Simulation::run discipline.
  EventQueue q;
  std::vector<Tick> fired_at;
  for (Tick t : {10u, 20u, 30u, 40u}) {
    q.schedule(t, [&q, &fired_at] { fired_at.push_back(q.now()); });
  }
  EXPECT_EQ(q.run_active(25), 3u);  // 10, 20, and the crossing event at 30
  EXPECT_EQ(fired_at, (std::vector<Tick>{10, 20, 30}));
  EXPECT_EQ(q.now(), 30u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, AdvanceIfNextStopsWhereRunActiveStops) {
  // advance_if_next mirrors run_active's now() < stop: from below the
  // stop a callback may run ahead to the event that crosses it, as the
  // loop would dispatch that event, and from there on nothing runs
  // ahead. Limits on the in-place tick and between two in-place ticks.
  for (const Tick stop : {Tick{20}, Tick{25}}) {
    EventQueue q;
    std::vector<bool> answers;
    q.schedule(10, [&] {
      for (const Tick when : {Tick{20}, Tick{30}, Tick{40}}) {
        answers.push_back(q.advance_if_next(when));
        if (!answers.back()) {
          q.schedule(when, [] {});
          return;
        }
      }
    });
    const std::vector<bool> expected =
        stop == 20 ? std::vector<bool>{true, false}
                   : std::vector<bool>{true, true, false};
    EXPECT_EQ(q.run_active(stop), expected.size()) << "stop " << stop;
    EXPECT_EQ(answers, expected) << "stop " << stop;
    EXPECT_EQ(q.now(), stop == 20 ? 20u : 30u);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.ran_in_place(), expected.size() - 1);
  }
}

TEST(EventQueue, AdvanceIfNextRunsTheNextEventInPlace) {
  // Only later pending events: the event at `when` is the next dispatch,
  // so the clock moves there and the run counts as one.
  EventQueue q;
  std::vector<Tick> ticks;
  q.schedule(30, [&] { ticks.push_back(q.now()); });
  q.schedule(10, [&] {
    ASSERT_TRUE(q.advance_if_next(10));  // the same tick, nothing pending
    ASSERT_TRUE(q.advance_if_next(19));
    ticks.push_back(q.now());
    ASSERT_TRUE(q.advance_if_next(29));
    ticks.push_back(q.now());
  });
  EXPECT_EQ(q.run_active(kNeverTick), 5u);  // 10, 10, 19, 29, 30
  EXPECT_EQ(ticks, (std::vector<Tick>{19, 29, 30}));
  EXPECT_EQ(q.ran_in_place(), 3u);
  // run_all counts them as well, with nothing left pending at the end.
  q.schedule(40, [&] { ASSERT_TRUE(q.advance_if_next(50)); });
  EXPECT_EQ(q.run_all(), 2u);
  EXPECT_EQ(q.now(), 50u);
  EXPECT_EQ(q.ran_in_place(), 4u);
}

TEST(EventQueue, AdvanceIfNextRefusesWhenAnEventIsDueFirst) {
  // A pending event due at `when` runs first by same-tick FIFO, and one
  // due earlier runs first by time: running ahead would overtake either.
  EventQueue q;
  std::vector<bool> answers;
  q.schedule(20, [] {});
  q.schedule(10, [&] {
    answers.push_back(q.advance_if_next(20));
    answers.push_back(q.advance_if_next(25));
    EXPECT_EQ(q.now(), 10u);
  });
  EXPECT_EQ(q.run_all(), 2u);
  EXPECT_EQ(answers, (std::vector<bool>{false, false}));
  EXPECT_EQ(q.ran_in_place(), 0u);
}

TEST(EventQueue, AdvanceIfNextRefusesOutsideADriveLoop) {
  EventQueue q;
  EXPECT_FALSE(q.advance_if_next(5));  // no loop is running
  // Under run_one, also when run_one is called from a callback that
  // run_active dispatched; that callback may run ahead again afterwards.
  std::vector<bool> answers;
  q.schedule(1, [&] { answers.push_back(q.advance_if_next(5)); });
  EXPECT_TRUE(q.run_one());
  q.schedule(2, [&] {
    q.schedule(3, [&] { answers.push_back(q.advance_if_next(5)); });
    q.run_one();
    answers.push_back(q.advance_if_next(6));
  });
  EXPECT_EQ(q.run_active(100), 2u);  // tick 2 and its run ahead to 6
  EXPECT_EQ(answers, (std::vector<bool>{false, false, true}));
  // After a callback threw out of run_active, as a trace decode error
  // does.
  q.schedule(7, [] { throw std::runtime_error("decode"); });
  EXPECT_THROW(q.run_active(100), std::runtime_error);
  EXPECT_EQ(q.now(), 7u);
  EXPECT_FALSE(q.advance_if_next(8));
  EXPECT_EQ(q.ran_in_place(), 1u);
}

/// Shared state of the stress tests' one-shots, reached through one
/// pointer so each callable fits the queue's inline buffer.
struct StressLog {
  EventQueue* q;
  std::vector<std::pair<Tick, int>> fired;  ///< (tick it ran at, seq)
};

/// Schedules 5000 one-shots at ticks drawn by `draw` from an LCG seeded
/// with `state`, drains the queue, and checks they ran in (tick,
/// insertion order).
template <typename Draw>
void expect_tick_then_fifo_order(std::uint64_t state, Draw draw) {
  EventQueue q;
  StressLog log{&q, {}};
  std::vector<std::pair<Tick, int>> scheduled;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const Tick when = draw(state);
    scheduled.push_back({when, i});
    q.schedule(when, [l = &log, i] { l->fired.push_back({l->q->now(), i}); });
  }
  q.run_all();
  ASSERT_EQ(log.fired.size(), scheduled.size());
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < log.fired.size(); ++i) {
    EXPECT_EQ(log.fired[i], scheduled[i]) << "event " << i;
  }
}

TEST(EventQueue, HeapStressPreservesTickThenFifoOrder) {
  // Pseudo-random tick order with many same-tick collisions must still
  // drain in (tick, insertion order).
  expect_tick_then_fifo_order(0x9E3779B97F4A7C15ull, [](std::uint64_t s) {
    return (s >> 33) % 97;  // dense ticks: forced FIFO ties
  });
}

TEST(EventQueue, ClearDiscardsPendingWithoutRunning) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  q.schedule(5, [] {});
  q.run_one();  // advance to tick 5
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.now(), 5u);  // clock preserved
  q.run_all();
  EXPECT_EQ(fired, 0);
  // The queue stays usable after a clear.
  q.schedule_in(1, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ThrowingCallbackLeavesTheQueueUsable) {
  // The throwing event is already popped when it runs: the exception
  // leaves the clock at its tick, the later events pending, and nothing
  // to reclaim however often it repeats.
  EventQueue q;
  int fired = 0;
  q.schedule(1'000, [&] { ++fired; });
  for (Tick t = 1; t <= 100; ++t) {
    q.schedule(t, [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(q.run_one(), std::runtime_error);
    EXPECT_EQ(q.now(), t);
    EXPECT_EQ(q.pending(), 1u);
  }
  q.schedule_in(1, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 1'000u);
}

TEST(EventQueue, ClearFromInsideACallbackKeepsThePoolConsistent) {
  // clear() during dispatch discards every pending event while the
  // running callback, invoked from its own copy of the callable, goes on
  // to refill the queue. (The name dates from the slot pool the queue
  // no longer has.)
  EventQueue q;
  std::vector<int> fired;
  q.schedule(10, [&] {
    q.clear();
    for (int i = 0; i < 8; ++i) {
      q.schedule_in(1 + i, [&fired, i] { fired.push_back(i); });
    }
  });
  q.schedule(20, [&fired] { fired.push_back(99); });  // discarded by clear
  q.run_all();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(q.now(), 10u + 1 + 7);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  Tick seen = 0;
  q.schedule(50, [&] { q.schedule_in(25, [&] { seen = q.now(); }); });
  q.run_all();
  EXPECT_EQ(seen, 75u);
}

TEST(EventQueue, HorizonBoundaryRoutesBothTiersInOrder) {
  // Ticks 127, 128 and 129 straddled the boundary between the two tiers
  // the queue once had; scheduling them out of order must not disturb
  // dispatch order or the pending count.
  EventQueue q;
  std::vector<int> order;
  q.schedule(128, [&] { order.push_back(1); });
  q.schedule(128 - 1, [&] { order.push_back(0); });
  q.schedule(128 + 1, [&] { order.push_back(2); });
  EXPECT_EQ(q.pending(), 3u);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 128u + 1);
}

TEST(EventQueue, SameTickFifoAcrossSchedulingTimes) {
  // Two events on one tick: the first scheduled far ahead, the second at
  // the last minute from a callback after the clock advanced. Insertion
  // order must win the tie.
  EventQueue q;
  std::vector<int> order;
  const Tick target = 10 * 128;
  q.schedule(target, [&] { order.push_back(0); });  // far when scheduled
  q.schedule(target - 2, [&] {
    q.schedule(target, [&] { order.push_back(1); });  // near now
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, ClearDiscardsCalendarResidentEvents) {
  // Cancellation reaches events at every distance, near to 2^40 ticks
  // out, and leaves the queue usable, far scheduling included. (The name
  // dates from the calendar tier the queue no longer has.)
  EventQueue q;
  int fired = 0;
  q.schedule(5, [&] { ++fired; });
  q.schedule(128 + 3, [&] { ++fired; });
  q.schedule(100'000, [&] { ++fired; });
  q.schedule(Tick{1} << 40, [&] { ++fired; });
  EXPECT_EQ(q.pending(), 4u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  q.run_all();
  EXPECT_EQ(fired, 0);
  q.schedule_in(128 + 1, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 128u + 1);
}

TEST(EventQueue, NextTickPeeksTheEarliestEvent) {
  EventQueue q;
  q.schedule(123'456, [] {});
  EXPECT_EQ(q.next_tick(), 123'456u);
  EXPECT_EQ(q.pending(), 1u);  // peeking must not lose the event
  q.schedule(10, [] {});
  EXPECT_EQ(q.next_tick(), 10u);
}

TEST(EventQueue, FarCeilingTicksStayOrdered) {
  // Ticks near 2^64 must still order correctly (no tick arithmetic may
  // wrap).
  EventQueue q;
  std::vector<int> order;
  const Tick huge = ~Tick{0} - 5;
  q.schedule(huge, [&] { order.push_back(1); });
  q.schedule(huge - 1, [&] { order.push_back(0); });
  q.schedule(40, [&] { order.push_back(-1); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
  EXPECT_EQ(q.now(), huge);
}

TEST(EventQueue, DeepStressPreservesTickThenFifoOrder) {
  // The deep-horizon twin of HeapStressPreservesTickThenFifoOrder:
  // pseudo-random ticks from a few to ~2^20 ticks out, dense enough to
  // force collisions at every scale.
  expect_tick_then_fifo_order(0x243F6A8885A308D3ull, [](std::uint64_t s) {
    const unsigned shift = (s >> 59) & 31;
    return (s >> 33) % ((Tick{1} << (shift % 21)) + 97);
  });
}

TEST(EventQueue, ClearFromCallbackWithCalendarResidents) {
  // A mid-dispatch clear() while far events are pending: far
  // rescheduling must work from inside the callback.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(10, [&] {
    q.clear();
    for (int i = 0; i < 4; ++i) {
      q.schedule_in(500 + i, [&fired, i] { fired.push_back(i); });
    }
  });
  q.schedule(90'000, [&fired] { fired.push_back(99); });  // far, cleared
  q.run_all();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 10u + 500 + 3);
}

}  // namespace
}  // namespace pipo
