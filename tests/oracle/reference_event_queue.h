// Seed-faithful reference event queue for the differential oracle layer.
//
// ReferenceEventQueue is the seed repository's original engine — a
// std::function callback in a binary std::priority_queue ordered by
// (tick, insertion sequence) — extended with the run_active/clear/
// next_tick surface the engine grew since, implemented in the same
// deliberately boring style. It is the specification for scheduling
// order and clock semantics: the differential driver in
// event_queue_differential_test.cpp asserts that the production
// EventQueue (a sorted array of inline events, see
// src/sim/event_queue.h) dispatches the same callbacks at the same
// ticks in the same order over randomized traces with deltas up to ~2^24
// ticks, and bench/micro_event_queue.cpp measures the production queue
// against it. This code must stay O(log n)-per-op simple.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.h"

namespace pipo::oracle {

class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;

  template <typename F>
  void schedule(Tick when, F&& fn) {
    heap_.push(Event{when, seq_++, Callback(std::forward<F>(fn))});
  }

  template <typename F>
  void schedule_in(Tick delta, F&& fn) {
    schedule(now_ + delta, std::forward<F>(fn));
  }

  Tick now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  Tick next_tick() const { return heap_.top().when; }

  bool run_one() {
    if (heap_.empty()) return false;
    // Copy out before pop: the callback may schedule new events.
    Event ev = heap_.top();
    heap_.pop();
    now_ = ev.when;
    ev.fn();
    return true;
  }

  /// The Simulation::run discipline: keep going while now() < stop, so
  /// the event that crosses `stop` still executes.
  std::uint64_t run_active(Tick stop) {
    std::uint64_t n = 0;
    while (!heap_.empty() && now_ < stop) {
      run_one();
      ++n;
    }
    return n;
  }

  std::uint64_t run_all() {
    std::uint64_t n = 0;
    while (run_one()) ++n;
    return n;
  }

  /// Discards every pending event without running it; clock preserved.
  void clear() {
    while (!heap_.empty()) heap_.pop();
    seq_ = 0;
  }

 private:
  struct Event {
    Tick when;
    std::uint64_t seq;
    Callback fn;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace pipo::oracle
