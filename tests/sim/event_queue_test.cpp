#include "sim/event_queue.h"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
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
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule_in(10, chain);
  };
  q.schedule(0, chain);
  q.run_all();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  q.schedule(30, [&] { ++fired; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle) {
  EventQueue q;
  q.run_until(100);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_one());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilClampsOnlyUpToLimitWithLaterPending) {
  // Regression: events beyond the horizon must survive run_until
  // untouched, with now() parked exactly at the limit — neither at the
  // pending event's tick nor anywhere past the limit.
  EventQueue q;
  int fired = 0;
  q.schedule(100, [&] { ++fired; });
  EXPECT_EQ(q.run_until(40), 0u);
  EXPECT_EQ(q.now(), 40u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(fired, 0);
  // Relative scheduling after the clamp is based on the clamped clock.
  q.schedule_in(5, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunUntilNeverMovesTimeBackwards) {
  // Regression: a limit earlier than now() must be a no-op, not rewind
  // the clock.
  EventQueue q;
  q.schedule(50, [] {});
  q.run_all();
  EXPECT_EQ(q.now(), 50u);
  EXPECT_EQ(q.run_until(10), 0u);
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunUntilRunsEventsChainedAtTheLimit) {
  // An event exactly at the limit that schedules another event at the
  // limit: both belong to the simulated horizon.
  EventQueue q;
  int fired = 0;
  q.schedule(20, [&] {
    ++fired;
    q.schedule(20, [&] { ++fired; });
  });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20u);
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

TEST(EventQueue, LargeCapturesFallBackToHeapCorrectly) {
  // Callables bigger than the inline buffer take the boxed path; results
  // must be indistinguishable.
  EventQueue q;
  std::array<std::uint64_t, 16> payload{};  // 128 bytes > kInlineBytes
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  q.schedule(5, [payload, &sum] {
    for (std::uint64_t v : payload) sum += v;
  });
  q.run_all();
  std::uint64_t want = 0;
  for (std::uint64_t v : payload) want += v;
  EXPECT_EQ(sum, want);
}

TEST(EventQueue, HeapStressPreservesTickThenFifoOrder) {
  // 4-ary heap stress: pseudo-random tick order with many same-tick
  // collisions must still drain in (tick, insertion seq) order.
  EventQueue q;
  struct Fired {
    Tick when;
    int seq;
  };
  std::vector<Fired> fired;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  std::vector<std::pair<Tick, int>> scheduled;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const Tick when = (state >> 33) % 97;  // dense ticks: forced FIFO ties
    scheduled.push_back({when, i});
    q.schedule(when, [&q, &fired, i] {
      fired.push_back(Fired{q.now(), i});
    });
  }
  q.run_all();
  ASSERT_EQ(fired.size(), scheduled.size());
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].when, scheduled[i].first);
    EXPECT_EQ(fired[i].seq, scheduled[i].second);
  }
}

TEST(EventQueue, ClearDiscardsPendingWithoutRunning) {
  EventQueue q;
  int fired = 0;
  auto big = std::make_shared<int>(7);  // boxed path: non-trivial capture
  q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&fired, big] { fired += *big; });
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

TEST(EventQueue, ThrowingCallbackReclaimsItsSlot) {
  EventQueue q;
  // If a throwing callback leaked its pool slot, repeating this many
  // times would grow the pool without bound; pending() staying at zero
  // and the queue staying usable pins the reclaim.
  for (int i = 0; i < 100; ++i) {
    q.schedule_in(1, [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(q.run_one(), std::runtime_error);
    EXPECT_TRUE(q.empty());
  }
  int fired = 0;
  q.schedule_in(1, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ClearFromInsideACallbackKeepsThePoolConsistent) {
  // clear() during dispatch resets the pool; the in-flight event's slot
  // id must not be recycled on return, or the same slot would be handed
  // out twice and a later schedule would clobber a pending callback.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(10, [&] {
    q.clear();
    // Refill past the in-flight slot: ids are reissued from zero.
    for (int i = 0; i < 8; ++i) {
      q.schedule_in(1 + i, [&fired, i] { fired.push_back(i); });
    }
  });
  q.schedule(20, [&fired] { fired.push_back(99); });  // discarded by clear
  q.run_all();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  Tick seen = 0;
  q.schedule(50, [&] { q.schedule_in(25, [&] { seen = q.now(); }); });
  q.run_all();
  EXPECT_EQ(seen, 75u);
}

// ---------------------------------------------------------------------
// Far-future edge cases. An earlier two-tier queue routed events at
// least 128 ticks ahead into calendar wheels; these tests pinned the
// seams between its tiers and stay as ordering, clearing and clamping
// regressions at the same ticks for the one-heap queue.

TEST(EventQueue, HorizonBoundaryRoutesBothTiersInOrder) {
  // Ticks 127, 128 and 129 straddled the old tier boundary; scheduling
  // them out of order must not disturb dispatch order or the pending
  // count.
  EventQueue q;
  std::vector<int> order;
  q.schedule(128, [&] { order.push_back(1); });
  q.schedule(128 - 1, [&] { order.push_back(0); });
  q.schedule(128 + 1, [&] { order.push_back(2); });
  EXPECT_EQ(q.pending(), 3u);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 128 + 1);
}

TEST(EventQueue, SameTickFifoAcrossTheHorizonBoundary) {
  // Two events on one tick: the first far in the future when scheduled,
  // the second near, after the clock advanced. Insertion order must win
  // the tie.
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
  // Cancellation must reach events at every distance, near to 2^40
  // ticks out, destroying boxed payloads and recycling their pool slots
  // so the queue stays usable.
  EventQueue q;
  int fired = 0;
  auto big = std::make_shared<int>(7);  // boxed path: non-trivial capture
  q.schedule(5, [&] { ++fired; });
  q.schedule(128 + 3, [&] { ++fired; });
  q.schedule(100'000, [&fired, big] { fired += *big; });
  q.schedule(Tick{1} << 40, [&] { ++fired; });
  EXPECT_EQ(q.pending(), 4u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(big.use_count(), 1) << "boxed calendar payload not destroyed";
  q.run_all();
  EXPECT_EQ(fired, 0);
  // The queue stays usable, far scheduling included.
  q.schedule_in(128 + 1, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilLandsInsideABucket) {
  // A limit that falls between two adjacent far events (they once
  // shared a calendar bucket): the earlier one runs, the later one stays
  // pending, and the clock parks exactly at the limit.
  EventQueue q;
  int fired = 0;
  const Tick base = 1000;
  q.schedule(base, [&] { ++fired; });
  q.schedule(base + 1, [&] { ++fired; });
  EXPECT_EQ(q.run_until(base), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), base);
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), base + 1);
}

TEST(EventQueue, RunUntilClampWithOnlyCalendarPending) {
  // The run_until clamp precondition: with the only event far beyond the
  // limit, time parks at the limit and the event survives untouched.
  EventQueue q;
  int fired = 0;
  q.schedule(50'000, [&] { ++fired; });
  EXPECT_EQ(q.run_until(400), 0u);
  EXPECT_EQ(q.now(), 400u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(fired, 0);
  // Relative scheduling after the clamp is based on the clamped clock.
  q.schedule_in(5, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 50'000u);
}

TEST(EventQueue, NextTickSeesCalendarResidentEvents) {
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
  // pseudo-random ticks from a few to ~2^20 ticks out, with same-tick
  // collisions, must drain in (tick, insertion seq) order.
  EventQueue q;
  struct Fired {
    Tick when;
    int seq;
  };
  std::vector<Fired> fired;
  std::uint64_t state = 0x243F6A8885A308D3ull;
  std::vector<std::pair<Tick, int>> scheduled;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // Magnitudes from a few ticks to ~2^20, dense enough to force
    // collisions at every scale.
    const unsigned shift = (state >> 59) & 31;
    const Tick when = (state >> 33) % ((Tick{1} << (shift % 21)) + 97);
    scheduled.push_back({when, i});
    q.schedule(when, [&q, &fired, i] {
      fired.push_back(Fired{q.now(), i});
    });
  }
  q.run_all();
  ASSERT_EQ(fired.size(), scheduled.size());
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].when, scheduled[i].first);
    EXPECT_EQ(fired[i].seq, scheduled[i].second);
  }
}

TEST(EventQueue, ClearFromCallbackWithCalendarResidents) {
  // A mid-dispatch clear() while far events are pending: the in-flight
  // slot must not be double-freed and far rescheduling must work from
  // inside the callback.
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
}

}  // namespace
}  // namespace pipo
