// Differential oracle for the EventQueue: drives the production engine
// (a sorted array of inline events) and the seed-faithful
// ReferenceEventQueue through identical randomized traces and asserts
// they dispatch the same callbacks at the same ticks in the same order —
// including same-tick FIFO ties between events scheduled far ahead and
// at the last minute.
//
// Each side owns an identically-seeded Rng for deltas drawn inside
// callbacks, so as long as dispatch order matches, both sides generate
// identical schedules; any ordering divergence desynchronizes the logs
// and fails the final comparison, and clock/pending divergence is
// asserted after every driver op. Delta magnitudes are mixed from
// same-tick to ~2^24 ticks out (the ranges once chosen to hit every
// level of a since-removed calendar tier, 128 ticks being its first
// far-routed delta), plus ceiling ticks near the top of the Tick range,
// far enough below it that a trace's later deltas cannot wrap. A single
// divergence anywhere fails with the trace seed in the message, so
// failures are reproducible by construction.
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "tests/oracle/reference_event_queue.h"

namespace pipo {
namespace {

constexpr int kTraces = 150;
constexpr int kOpsPerTrace = 200;

/// One dispatched event: (tick it ran at, id assigned at schedule time).
using Log = std::vector<std::pair<Tick, int>>;

/// Ceiling events land in [kCeiling, kCeiling + 2^22). Each op moves the
/// clock at most about 2^25 ticks, so after a ceiling event runs the rest
/// of a 200-op trace stays far below 2^64 and the clock never wraps.
constexpr Tick kCeiling = ~Tick{0} - (Tick{1} << 40);

/// Mixed-magnitude deltas, same-tick to ~2^24 ticks out.
Tick mixed_delta(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return rng.below(2);                      // same tick / next
    case 1: return rng.below(128);
    case 2: return 128;
    case 3: return rng.below(256);
    case 4: return rng.below(8192);
    case 5: return rng.below(Tick{1} << 19);
    case 6: return rng.below(Tick{1} << 24);
    default: return 1 + rng.below(63);                // dense near
  }
}

template <typename Q>
struct Side {
  Q q;
  Log log;
  Rng rng;
  int next_id = 0;
  explicit Side(std::uint64_t seed) : rng(seed) {}
};

/// One-shot: records (now, id). Trivially copyable and 16 bytes, like
/// every callable here — the production queue stores it inline.
template <typename Q>
struct Shot {
  Side<Q>* s;
  int id;
  void operator()() const { s->log.emplace_back(s->q.now(), id); }
};

/// Self-rescheduling chain drawing deltas from the side-local rng, so
/// both sides reproduce the same schedule iff dispatch order matches.
template <typename Q>
struct Chain {
  Side<Q>* s;
  int id;
  int hops;
  void operator()() const {
    s->log.emplace_back(s->q.now(), id);
    if (hops > 0) {
      s->q.schedule_in(mixed_delta(s->rng),
                       Chain{s, s->next_id++, hops - 1});
    }
  }
};

/// A Chain whose production copy runs each next hop in place while
/// advance_if_next allows and schedules the first hop that must wait; the
/// reference copy schedules every hop. Both draw the same deltas in the
/// same order, so the logs match iff each in-place hop is exactly the
/// event the reference pops next.
template <typename Q>
struct AheadChain {
  Side<Q>* s;
  int id;
  int hops;
  void operator()() const {
    AheadChain c = *this;
    for (;;) {
      s->log.emplace_back(s->q.now(), c.id);
      if (c.hops == 0) return;
      const Tick when = s->q.now() + mixed_delta(s->rng);
      c = AheadChain{s, s->next_id++, c.hops - 1};
      if constexpr (std::is_same_v<Q, EventQueue>) {
        if (s->q.advance_if_next(when)) continue;
      }
      s->q.schedule(when, c);
      return;
    }
  }
};

/// Mid-dispatch cancellation of everything pending, far events included.
template <typename Q>
struct ClearShot {
  Side<Q>* s;
  int id;
  void operator()() const {
    s->log.emplace_back(s->q.now(), id);
    s->q.clear();
  }
};

/// Drives one randomized trace through both queues and counts it in
/// `ceiling_traces` if it dispatched a ceiling event. When
/// `ran_in_place` is non-null, chains are AheadChains and the production
/// queue's in-place runs are added to it.
template <typename ProdQ, typename RefQ>
void drive_trace(std::uint64_t seed, bool deep_bias, int& ceiling_traces,
                 std::uint64_t* ran_in_place = nullptr) {
  Side<ProdQ> a(seed * 2 + 1);
  Side<RefQ> b(seed * 2 + 1);
  Rng op(seed);

  auto schedule_both = [&](Tick delta, bool chain) {
    const int id = a.next_id++;
    b.next_id++;
    if (chain && ran_in_place) {
      const int hops = 1 + static_cast<int>(op.below(8));
      a.q.schedule_in(delta, AheadChain<ProdQ>{&a, id, hops});
      b.q.schedule_in(delta, AheadChain<RefQ>{&b, id, hops});
    } else if (chain) {
      const int hops = 1 + static_cast<int>(op.below(3));
      a.q.schedule_in(delta, Chain<ProdQ>{&a, id, hops});
      b.q.schedule_in(delta, Chain<RefQ>{&b, id, hops});
    } else {
      a.q.schedule_in(delta, Shot<ProdQ>{&a, id});
      b.q.schedule_in(delta, Shot<RefQ>{&b, id});
    }
  };

  for (int step = 0; step < kOpsPerTrace; ++step) {
    const unsigned roll = static_cast<unsigned>(op.below(12));
    switch (roll) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5: {  // schedule a batch (deep traces pile the queue high)
        const unsigned batch =
            deep_bias ? 1 + static_cast<unsigned>(op.below(24)) : 1;
        for (unsigned i = 0; i < batch; ++i) {
          Tick delta = mixed_delta(op);
          if (deep_bias && op.below(4) != 0) {
            delta += 128;  // bias the batch far out
          }
          schedule_both(delta, op.below(5) == 0);
        }
        break;
      }
      case 6:
      case 7: {
        a.q.run_one();
        b.q.run_one();
        break;
      }
      case 8: {
        if (op.below(2) == 0) {
          const Tick stop = a.q.now() + mixed_delta(op);
          ASSERT_EQ(a.q.run_active(stop), b.q.run_active(stop))
              << "seed " << seed << " step " << step;
        } else {
          a.q.run_one();
          b.q.run_one();
        }
        break;
      }
      case 9: {
        const Tick stop = a.q.now() + mixed_delta(op);
        ASSERT_EQ(a.q.run_active(stop), b.q.run_active(stop))
            << "seed " << seed << " step " << step;
        break;
      }
      case 10: {  // rare: cancel everything, sometimes mid-dispatch
        if (op.below(8) == 0) {
          if (op.below(2) == 0) {
            const int id = a.next_id++;
            b.next_id++;
            const Tick delta = mixed_delta(op);
            a.q.schedule_in(delta, ClearShot<ProdQ>{&a, id});
            b.q.schedule_in(delta, ClearShot<RefQ>{&b, id});
          } else {
            a.q.clear();
            b.q.clear();
          }
        } else {
          a.q.run_one();
          b.q.run_one();
        }
        break;
      }
      default: {  // absolute ticks near 2^64
        const Tick when = kCeiling + op.below(Tick{1} << 22);
        if (when >= a.q.now()) {
          // run_one() and run_active() may dispatch these mid-trace,
          // after which the clock carries on from the ceiling.
          const int id = a.next_id++;
          b.next_id++;
          a.q.schedule(when, Shot<ProdQ>{&a, id});
          b.q.schedule(when, Shot<RefQ>{&b, id});
        }
        break;
      }
    }
    ASSERT_EQ(a.q.now(), b.q.now()) << "seed " << seed << " step " << step;
    ASSERT_EQ(a.q.pending(), b.q.pending())
        << "seed " << seed << " step " << step;
    ASSERT_EQ(a.q.empty(), b.q.empty())
        << "seed " << seed << " step " << step;
    if (!a.q.empty()) {
      ASSERT_EQ(a.q.next_tick(), b.q.next_tick())
          << "seed " << seed << " step " << step;
    }
  }

  // Drain-and-compare below the ceiling, so a trace counts in
  // `ceiling_traces` only if it dispatched a ceiling event mid-run, with
  // ops left to follow it.
  while (!a.q.empty() && a.q.next_tick() < kCeiling - (Tick{1} << 40)) {
    a.q.run_one();
    b.q.run_one();
  }
  ASSERT_EQ(a.log.size(), b.log.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    ASSERT_EQ(a.log[i], b.log[i]) << "seed " << seed << " event " << i;
    // The clock never runs backwards, ceiling events included.
    if (i > 0) {
      ASSERT_GE(a.log[i].first, a.log[i - 1].first)
          << "seed " << seed << " event " << i;
    }
  }
  ASSERT_EQ(a.next_id, b.next_id) << "seed " << seed;
  if (!a.log.empty() && a.log.back().first >= kCeiling) ++ceiling_traces;
  if (ran_in_place) *ran_in_place += a.q.ran_in_place();
}

TEST(EventQueueDifferential, RandomTraces) {
  int ceiling_traces = 0;
  for (int t = 0; t < kTraces; ++t) {
    drive_trace<EventQueue, oracle::ReferenceEventQueue>(
        0xE0000 + static_cast<std::uint64_t>(t), /*deep_bias=*/false,
        ceiling_traces);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(ceiling_traces, 0);
}

TEST(EventQueueDifferential, DeepQueueTraces) {
  // Batches of up to 24 events, mostly biased at least 128 ticks out,
  // pile the queue far deeper than a simulation ever does.
  int ceiling_traces = 0;
  for (int t = 0; t < kTraces; ++t) {
    drive_trace<EventQueue, oracle::ReferenceEventQueue>(
        0xD0000 + static_cast<std::uint64_t>(t), /*deep_bias=*/true,
        ceiling_traces);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(ceiling_traces, 0);
}

TEST(EventQueueDifferential, RunAheadTraces) {
  // Chains of up to eight hops that run ahead in place on the production
  // queue, interleaved with scheduling, run_one, run_active to random
  // stops and clears: every hop must land where the reference pops it,
  // and run_active must count the in-place hops as dispatched.
  std::uint64_t ran_in_place = 0;
  int ceiling_traces = 0;
  for (int t = 0; t < kTraces; ++t) {
    drive_trace<EventQueue, oracle::ReferenceEventQueue>(
        0xA0000 + static_cast<std::uint64_t>(t), /*deep_bias=*/false,
        ceiling_traces, &ran_in_place);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(ran_in_place, 10u * kTraces);
  EXPECT_GT(ceiling_traces, 0);
}

TEST(EventQueueDifferential, SameTickFifoAcrossSchedulingTimes) {
  // Events landing on one tick, one scheduled far ahead and one at the
  // last minute, must still dispatch in insertion order.
  Side<EventQueue> a(7);
  Side<oracle::ReferenceEventQueue> b(7);
  constexpr Tick kStep = 300;  // the early event is scheduled far out
  for (int round = 0; round < 64; ++round) {
    const Tick target = (round + 1) * kStep;
    const int early = a.next_id++;
    b.next_id++;
    a.q.schedule(target, Shot<EventQueue>{&a, early});
    b.q.schedule(target, Shot<oracle::ReferenceEventQueue>{&b, early});
    // Walk the clock to just before the target with a marker event, then
    // schedule the late twin on the same tick.
    a.q.schedule(target - 1, [] {});
    b.q.schedule(target - 1, [] {});
    while (a.q.now() < target - 1) {
      a.q.run_one();
      b.q.run_one();
    }
    ASSERT_EQ(b.q.now(), target - 1);
    const int late = a.next_id++;
    b.next_id++;
    a.q.schedule(target, Shot<EventQueue>{&a, late});
    b.q.schedule(target, Shot<oracle::ReferenceEventQueue>{&b, late});
  }
  a.q.run_all();
  b.q.run_all();
  ASSERT_EQ(a.log, b.log);
  // And the FIFO shape itself: early id before late id on every tick.
  for (std::size_t i = 0; i + 1 < a.log.size(); i += 2) {
    EXPECT_EQ(a.log[i].first, a.log[i + 1].first);
    EXPECT_LT(a.log[i].second, a.log[i + 1].second);
  }
}

}  // namespace
}  // namespace pipo
