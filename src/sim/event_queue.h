// Discrete-event simulation kernel: a single global event queue ordered by
// (tick, scheduling order), the same scheduling discipline as gem5's
// EventQueue. Single-threaded by design.
//
// Engine notes. The simulator keeps the queue shallow: a blocking
// CoreModel has at most one event in flight and Simulation adds one
// uncore tick, so it never holds more than num_cores + 1 events, 33 at
// SystemConfig's 32-core cap. Pending events therefore live in one
// vector kept sorted latest-first. The earliest event is the back
// element, so a dispatch is a pop_back, and an insertion moves at most
// 32 records. A new event goes behind every pending event due at or
// before its tick, so same-tick events run in scheduling order by
// position and no sequence number is needed.
//
// Running ahead. Inside a drive loop, a callback whose last action would
// be to schedule its own next event may first ask advance_if_next(when).
// When no pending event is due at or before `when` and the loop has not
// reached its stop, that event is exactly the one the loop would
// dispatch next: the clock moves to `when`, the event counts as
// dispatched, and the callback runs it in place instead of taking it
// through the vector. Otherwise the callback schedules it as usual.
//
// Each event carries its callable inline: schedule() copies a trivially
// copyable callable of at most 16 bytes (the simulator's lambdas capture
// only `this`) into the 32-byte record and rejects anything else at
// compile time. Once the vector has reached its high-water mark,
// scheduling and dispatch perform no heap allocation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace pipo {

/// The simulation's single source of time. Ticks are absolute, unsigned
/// and monotonically non-decreasing: `now()` moves forward only when an
/// event is dispatched or run in place (advance_if_next). Callbacks may
/// freely schedule more events, may call `clear()` on their own queue
/// mid-dispatch, and may throw.
class EventQueue {
 public:
  /// Largest callable schedule() accepts, in bytes.
  static constexpr std::size_t kInlineBytes = 16;

  /// Schedules `fn` to run at absolute tick `when` (>= now()), after
  /// every pending event due at or before `when`.
  template <typename F>
  void schedule(Tick when, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<Fn> &&
                      sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(void*),
                  "EventQueue callables must be trivially copyable and fit "
                  "kInlineBytes; capture one context pointer instead");
    assert(when >= now_);
    Event ev{when, &invoke<Fn>, {}};
    ::new (static_cast<void*>(ev.fn)) Fn(std::forward<F>(fn));
    events_.insert(std::partition_point(
                       events_.begin(), events_.end(),
                       [when](const Event& e) { return e.when > when; }),
                   ev);
  }

  /// Schedules `fn` to run `delta` ticks from now.
  template <typename F>
  void schedule_in(Tick delta, F&& fn) {
    schedule(now_ + delta, std::forward<F>(fn));
  }

  Tick now() const { return now_; }
  bool empty() const { return events_.empty(); }

  /// Pending (scheduled, not yet dispatched) events.
  std::size_t pending() const { return events_.size(); }

  /// Tick of the earliest pending event. Precondition: !empty().
  Tick next_tick() const {
    assert(!events_.empty());
    return events_.back().when;
  }

  /// For the callback being dispatched, in place of scheduling its own
  /// next event at `when` (>= now()) as its last action: when that event
  /// is the one the drive loop would dispatch next, moves the clock to
  /// `when`, counts the event as dispatched and returns true, and the
  /// caller runs it in place. That holds inside run_active()/run_all()
  /// while the clock has not reached the loop's stop and no pending
  /// event is due at or before `when`. Returns false under run_one(),
  /// outside any drive loop, and otherwise; the caller then schedules
  /// the event.
  bool advance_if_next(Tick when) {
    assert(when >= now_);
    if (now_ >= stop_ || (!events_.empty() && events_.back().when <= when)) {
      return false;
    }
    now_ = when;
    ++ran_in_place_;
    return true;
  }

  /// Events run in place through advance_if_next() since construction.
  /// A host-cost diagnostic.
  std::uint64_t ran_in_place() const { return ran_in_place_; }

  /// Runs the earliest event. Returns false when the queue is empty.
  bool run_one() {
    if (events_.empty()) return false;
    const StopScope no_run_ahead(*this, 0);
    dispatch();
    return true;
  }

  /// Runs events while the clock has not reached `stop` — the event that
  /// crosses `stop` still executes (a started access completes). This is
  /// the drive loop of Simulation::run. Returns the number of events
  /// executed, those run in place included.
  std::uint64_t run_active(Tick stop) {
    const StopScope scope(*this, stop);
    const std::uint64_t in_place = ran_in_place_;
    std::uint64_t n = 0;
    while (now_ < stop && !events_.empty()) {
      dispatch();
      ++n;
    }
    return n + (ran_in_place_ - in_place);
  }

  /// Drains the queue completely.
  std::uint64_t run_all() {
    const StopScope scope(*this, kNeverTick);
    const std::uint64_t in_place = ran_in_place_;
    std::uint64_t n = 0;
    while (!events_.empty()) {
      dispatch();
      ++n;
    }
    return n + (ran_in_place_ - in_place);
  }

  /// Discards every pending event without running it. The clock is
  /// preserved. Lets Simulation::run start a fresh run after a
  /// tick-capped one without dispatching stale events.
  void clear() { events_.clear(); }

 private:
  struct Event {
    Tick when;
    void (*invoke)(void*);
    alignas(void*) unsigned char fn[kInlineBytes];
  };
  static_assert(sizeof(void*) != 8 || sizeof(Event) == 32,
                "an event should be 32 bytes on LP64");

  template <typename Fn>
  static void invoke(void* fn) {
    (*std::launder(static_cast<Fn*>(fn)))();
  }

  /// Sets the stop below which advance_if_next() may run an event in
  /// place for one drive call, and restores the previous stop however the
  /// call ends, a throwing callback included.
  class StopScope {
   public:
    StopScope(EventQueue& q, Tick stop) : q_(q), saved_(q.stop_) {
      q.stop_ = stop;
    }
    ~StopScope() { q_.stop_ = saved_; }
    StopScope(const StopScope&) = delete;
    StopScope& operator=(const StopScope&) = delete;

   private:
    EventQueue& q_;
    Tick saved_;
  };

  /// Pops the earliest event, advances the clock and invokes the popped
  /// copy, so the callback may schedule, clear() or throw with nothing
  /// left to reclaim.
  void dispatch() {
    Event ev = events_.back();
    events_.pop_back();
    now_ = ev.when;
    ev.invoke(ev.fn);
  }

  std::vector<Event> events_;  ///< sorted latest-first
  Tick now_ = 0;
  /// The drive loop's stop; 0 outside run_active() and run_all() and
  /// under run_one(), where now() < stop_ never holds, so nothing runs
  /// ahead.
  Tick stop_ = 0;
  std::uint64_t ran_in_place_ = 0;
};

}  // namespace pipo
