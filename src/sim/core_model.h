// In-order core model: executes its workload's instruction stream at one
// instruction per cycle, blocking on every memory access (single
// outstanding miss). This is gem5's TimingSimpleCPU discipline — exactly
// the CPU model class the paper's evaluation platform uses for memory-
// system studies — and it preserves what matters here: the dependence of
// execution time on per-access latency, and cycle-accurate cross-core
// interleaving of LLC traffic.
//
// Scheduling discipline: because the core is blocking, at most one event
// of this core is ever in flight, so the pending request lives in a
// member and its one callback captures only `this`, which fits the event
// queue's 16-byte inline callable, making steady-state simulation
// allocation-free. A core alternates two phases: a step asks the
// workload for its next request, and pre_delay cycles later an issue
// sends it into the memory system; the next step follows at the access's
// completion. Each phase ends by handing the tick of the next one to
// EventQueue::advance_if_next: while no other event comes first, the core
// runs ahead in place, and it schedules its callback only for a phase
// that must wait. Every phase runs at the tick, and in the order among
// all events, that scheduling it would give (event_queue.h), so the
// System, the workload and the uncore tick see the same calls either way
// (tests/oracle/run_ahead_oracle_test replays the two-event core that
// schedules every phase).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/event_queue.h"
#include "sim/system.h"
#include "sim/workload_if.h"

namespace pipo {

class CoreModel {
 public:
  /// `running_cores`, when non-null, is decremented exactly once when
  /// this core's workload finishes (the Simulation's O(1) liveness
  /// counter).
  CoreModel(CoreId id, System* system, EventQueue* queue, Workload* workload,
            std::uint32_t* running_cores = nullptr)
      : id_(id),
        system_(system),
        queue_(queue),
        workload_(workload),
        running_cores_(running_cores) {}

  /// Schedules the first instruction at `start`.
  void start(Tick start_tick) {
    queue_->schedule(start_tick, [this] { run(); });
  }

  bool done() const { return done_; }
  Tick finish_tick() const { return finish_tick_; }
  CoreId id() const { return id_; }

  /// Retired instructions: one per memory access plus every pre_delay
  /// cycle of non-memory work.
  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t mem_accesses() const { return mem_accesses_; }

 private:
  /// The core's event: runs the due phase, then each next one in place
  /// while the queue allows, and schedules the first that must wait.
  void run() {
    Tick next = 0;
    do {
      const Tick now = queue_->now();
      if (issuing_) {
        const System::AccessOutcome out = system_->access(
            now, id_, pending_.addr, pending_.type, pending_.bypass_private);
        instructions_ += 1 + pending_.pre_delay;
        ++mem_accesses_;
        workload_->on_complete(pending_, now, out.complete);
        next = out.complete;
      } else {
        const auto req = workload_->next(now);
        if (!req) {
          done_ = true;
          finish_tick_ = now;
          if (running_cores_) --*running_cores_;
          return;
        }
        pending_ = *req;
        next = now + req->pre_delay;
      }
      issuing_ = !issuing_;
    } while (queue_->advance_if_next(next));
    queue_->schedule(next, [this] { run(); });
  }

  CoreId id_;
  System* system_;
  EventQueue* queue_;
  Workload* workload_;
  std::uint32_t* running_cores_;
  MemRequest pending_;  ///< request between its step and its issue
  bool issuing_ = false;  ///< the next phase is pending_'s issue
  bool done_ = false;
  Tick finish_tick_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t mem_accesses_ = 0;
};

}  // namespace pipo
