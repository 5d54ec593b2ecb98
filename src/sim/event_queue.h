// Discrete-event simulation kernel: a single global event queue ordered by
// (tick, insertion sequence), the same scheduling discipline as gem5's
// EventQueue. Single-threaded by design.
//
// Engine notes. Pending events live in one 4-ary implicit min-heap of
// 16-byte POD records {tick, seq|slot}, so every percolation step is a
// plain copy with no indirect calls; a 4-ary heap traverses half the
// levels of a binary heap per percolation and its four children share a
// cache line. The simulator keeps the heap small: every blocking
// CoreModel has exactly one event in flight and the driver adds one
// uncore tick, so it never holds more than num_cores + 1 events.
//
// The ordering state and the callbacks are split: the heap holds only
// the POD records, while the callbacks live in a stable chunked slot
// pool recycled through a free list. Callbacks are small-buffer
// InlineCallbacks instead of std::function, so scheduling a callable
// whose captures fit kInlineBytes performs no heap allocation;
// steady-state simulation (cores self-scheduling `this`-capture steps)
// is entirely allocation-free once the pool and heap have reached their
// high-water marks.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace pipo {

/// Move-only callable wrapper, trivially relocatable by construction.
/// Trivially-copyable callables up to kInlineBytes are stored in place
/// (simulation lambdas capture a `this` pointer or a couple of
/// references, all trivially copyable); everything else — including
/// std::function and capture lists with nontrivial members — is boxed
/// behind one owning heap pointer. Either way the wrapper's bytes can be
/// moved with memcpy, so heap/pool shuffles never pay an indirect call.
class alignas(64) InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    init(std::forward<F>(f));
  }

  /// Rebinds to `f`, releasing any previous payload. Constructs directly
  /// into this object's storage — the pool's fast path, which skips the
  /// temporary-wrapper move of `*this = InlineCallback(f)`.
  template <typename F>
  void assign(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      *this = std::forward<F>(f);
    } else {
      if (destroy_) {
        destroy_(buf_);
        // Clear before init: if the new payload's allocation or copy
        // throws, the destructor must not free the old pointer again.
        destroy_ = nullptr;
        invoke_ = nullptr;
      }
      init(std::forward<F>(f));
    }
  }

  InlineCallback(InlineCallback&& o) noexcept {
    std::memcpy(static_cast<void*>(this), &o, sizeof *this);
    o.invoke_ = nullptr;
    o.destroy_ = nullptr;
  }

  InlineCallback& operator=(InlineCallback&& o) noexcept {
    if (this != &o) {
      if (destroy_) destroy_(buf_);
      std::memcpy(static_cast<void*>(this), &o, sizeof *this);
      o.invoke_ = nullptr;
      o.destroy_ = nullptr;
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() {
    if (destroy_) destroy_(buf_);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() {
    assert(invoke_ && "invoking an empty InlineCallback");
    invoke_(buf_);
  }

  /// Pool-owner hook: releases a boxed payload after the last invocation
  /// without the full-object write of `*this = {}` — a no-op for inline
  /// (trivially destructible) callables. The wrapper stays assignable.
  void destroy_payload() {
    if (destroy_) {
      destroy_(buf_);
      destroy_ = nullptr;
      invoke_ = nullptr;
    }
  }

 private:
  template <typename F>
  void init(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = nullptr;  // trivially destructible by construction
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      destroy_ = [](void* p) { delete *static_cast<Fn**>(p); };
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// The simulation's single source of time. Ticks are absolute, unsigned
/// and monotonically non-decreasing: `now()` only moves forward, via
/// event dispatch or an idle `run_until` clamp. Scheduled callables are
/// owned by the queue (constructed into its slot pool) and destroyed
/// right after their single invocation, or by `clear()`/the destructor
/// if they never run. Callbacks may freely schedule more events and may
/// call `clear()` on their own queue mid-dispatch.
class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() {
    heap_.reserve(64);
    free_slots_.reserve(64);
  }

  /// Schedules `fn` to run at absolute tick `when` (>= now()). The
  /// callable is constructed directly into its pool slot and its 16-byte
  /// ordering record is pushed onto the heap.
  template <typename F>
  void schedule(Tick when, F&& fn) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      // Unconditional: past kSlotMask the slot bits would bleed into the
      // sequence field and dispatch the wrong callbacks. Off the hot
      // path (only when the pool grows).
      if (used_slots_ >= kSlotMask) {
        throw std::length_error("EventQueue: over 2^24 pending events");
      }
      slot = used_slots_++;
      if ((slot >> kChunkBits) == chunks_.size()) {
        chunks_.emplace_back(new Callback[kChunkSize]);
      }
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slot_ref(slot).assign(std::forward<F>(fn));
    if (seq_ >= kMaxSeq) renumber();
    heap_.push_back(Event{when, (seq_++ << kSlotBits) | slot});
    sift_up(heap_.size() - 1);
  }

  /// Schedules `fn` to run `delta` ticks from now.
  template <typename F>
  void schedule_in(Tick delta, F&& fn) {
    schedule(now_ + delta, std::forward<F>(fn));
  }

  Tick now() const { return now_; }
  bool empty() const { return heap_.empty(); }

  /// Pending (scheduled, not yet dispatched) events.
  std::size_t pending() const { return heap_.size(); }

  /// Tick of the earliest pending event. Precondition: !empty().
  Tick next_tick() const {
    assert(!heap_.empty());
    return heap_.front().when;
  }

  /// Runs the earliest event. Returns false when the queue is empty.
  bool run_one() {
    if (heap_.empty()) return false;
    dispatch(pop_min());
    return true;
  }

  /// Runs events until the queue empties or the next event is after
  /// `limit`. Returns the number of events executed. Idle time advances
  /// to `limit` only when the queue is drained or the next event lies
  /// beyond it — the horizon was actually simulated — and never moves
  /// backwards.
  std::uint64_t run_until(Tick limit) {
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= limit) {
      dispatch(pop_min());
      ++n;
    }
    if (now_ < limit) now_ = limit;
    return n;
  }

  /// Runs events while the clock has not reached `stop` — the event that
  /// crosses `stop` still executes (a started access completes). This is
  /// the driver loop of Simulation::run, kept inside the queue so the
  /// hot path is one tight loop with no per-event virtual or function-
  /// pointer indirection beyond the callback itself.
  std::uint64_t run_active(Tick stop) {
    std::uint64_t n = 0;
    while (now_ < stop && !heap_.empty()) {
      dispatch(pop_min());
      ++n;
    }
    return n;
  }

  /// Discards every pending event without running it, destroying the
  /// queued callbacks. The clock is preserved. Lets a driver start a
  /// fresh run after a tick-capped one without dispatching stale events.
  void clear() {
    // Each queued event's slot goes back to the free list; the pool
    // high-water mark is deliberately left alone. Resetting it would
    // reissue the slot of a callback that called clear() mid-dispatch
    // while its captures still live in that buffer — this way in-flight
    // slots stay out of circulation until their dispatch frame recycles
    // them, and no per-dispatch bookkeeping is needed.
    for (const Event& ev : heap_) {
      slot_ref(ev.slot()).destroy_payload();
      free_slots_.push_back(ev.slot());
    }
    heap_.clear();
    seq_ = 0;
  }

  /// Drains the queue completely.
  std::uint64_t run_all() {
    std::uint64_t n = 0;
    while (!heap_.empty()) {
      dispatch(pop_min());
      ++n;
    }
    return n;
  }

 private:
  // 16-byte heap record: the insertion sequence and the pool slot share
  // one word (seq in the high bits dominates the FIFO tiebreak; the slot
  // bits below it never decide an ordering because sequences are unique
  // among coexisting events). Percolations are raw POD copies, four
  // records per cache line.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  struct Event {
    Tick when;
    std::uint64_t seq_slot;

    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
    bool before(const Event& o) const {
      return when != o.when ? when < o.when : seq_slot < o.seq_slot;
    }
  };

  static constexpr std::size_t kArity = 4;

  /// Advances the clock and invokes the event's callback in place. The
  /// chunked pool gives slots stable addresses, and the slot is recycled
  /// only after the call returns, so a callback scheduling new events
  /// (growing the pool, reusing freed slots) cannot clobber the callable
  /// it is executing from.
  void dispatch(const Event& ev) {
    now_ = ev.when;
    const std::uint32_t slot = ev.slot();
    Callback& fn = slot_ref(slot);  // chunk storage is stable across fn()
    try {
      fn();
    } catch (...) {
      recycle(slot, fn);
      throw;  // slot reclaimed even when the callback throws
    }
    recycle(slot, fn);
  }

  /// Ends a dispatch frame: the slot's payload is destroyed and the id
  /// returned to the free list. A popped event's slot is referenced by
  /// neither the heap nor the free list, so this is the single owner of
  /// that hand-back even across a mid-callback clear().
  void recycle(std::uint32_t slot, Callback& fn) {
    fn.destroy_payload();
    free_slots_.push_back(slot);
  }

  Event pop_min() {
    const Event out = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      sift_down(last);
    } else {
      // FIFO only orders coexisting events, so the sequence counter can
      // rewind whenever nothing is pending.
      seq_ = 0;
    }
    return out;
  }

  /// Once per ~2^40 events without a full drain: rewrites sequence
  /// numbers 0..n-1 in current priority order. A sorted array is a valid
  /// d-ary min-heap, so the heap property is restored for free. Out of
  /// line: it is cold and would otherwise bloat every schedule()
  /// instantiation it is reachable from.
  __attribute__((noinline)) void renumber() {
    std::sort(heap_.begin(), heap_.end(),
              [](const Event& a, const Event& b) { return a.before(b); });
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i].seq_slot =
          (static_cast<std::uint64_t>(i) << kSlotBits) | heap_[i].slot();
    }
    seq_ = heap_.size();
  }

  void sift_up(std::size_t i) {
    if (i == 0) return;
    const Event hole = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!hole.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = hole;
  }

  /// Places `hole` (the detached last element) into the vacated root.
  void sift_down(const Event hole) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      if (!heap_[best].before(hole)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = hole;
  }

  // Callback pool: fixed-size chunks so slot addresses never move (the
  // in-place dispatch above depends on this).
  static constexpr unsigned kChunkBits = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Callback& slot_ref(std::uint32_t s) {
    return chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }

  std::vector<Event> heap_;
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;  ///< recycled pool slots
  std::uint32_t used_slots_ = 0;           ///< pool high-water mark
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
};

static_assert(sizeof(void*) != 8 || sizeof(InlineCallback) == 64,
              "InlineCallback should be exactly one cache line on LP64");

}  // namespace pipo
