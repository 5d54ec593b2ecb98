// Reference core model for the run-ahead differential oracle.
//
// ReferenceCoreModel is the in-order blocking core as it was before
// cores ran ahead of the event queue: two events per memory access, a
// step that asks the workload for its next request and an issue that
// sends it into the memory system, each scheduled through the queue. It
// never calls EventQueue::advance_if_next, so every phase takes the
// queue's insert and dispatch. It is the specification for what the
// System and the workloads see: run_ahead_oracle_test.cpp asserts that
// Simulation::run over the production CoreModel (src/sim/core_model.h),
// which runs a phase in place when no pending event precedes it, leaves
// exactly the state a driver over this model leaves. Keep it two plain
// events.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/system.h"
#include "sim/workload_if.h"

namespace pipo::oracle {

class ReferenceCoreModel {
 public:
  /// `running_cores`, when non-null, is decremented exactly once when
  /// this core's workload finishes.
  ReferenceCoreModel(CoreId id, System* system, EventQueue* queue,
                     Workload* workload,
                     std::uint32_t* running_cores = nullptr)
      : id_(id),
        system_(system),
        queue_(queue),
        workload_(workload),
        running_cores_(running_cores) {}

  /// Schedules the first instruction at `start`.
  void start(Tick start_tick) {
    queue_->schedule(start_tick, [this] { step(); });
  }

  bool done() const { return done_; }
  Tick finish_tick() const { return finish_tick_; }
  CoreId id() const { return id_; }

  /// Retired instructions: one per memory access plus every pre_delay
  /// cycle of non-memory work.
  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t mem_accesses() const { return mem_accesses_; }

 private:
  void step() {
    const auto req = workload_->next(queue_->now());
    if (!req) {
      done_ = true;
      finish_tick_ = queue_->now();
      if (running_cores_) --*running_cores_;
      return;
    }
    pending_ = *req;
    queue_->schedule(queue_->now() + req->pre_delay, [this] { issue(); });
  }

  void issue() {
    const Tick issued = queue_->now();
    const System::AccessOutcome out = system_->access(
        issued, id_, pending_.addr, pending_.type, pending_.bypass_private);
    instructions_ += 1 + pending_.pre_delay;
    ++mem_accesses_;
    workload_->on_complete(pending_, issued, out.complete);
    queue_->schedule(out.complete, [this] { step(); });
  }

  CoreId id_;
  System* system_;
  EventQueue* queue_;
  Workload* workload_;
  std::uint32_t* running_cores_;
  MemRequest pending_;  ///< request between its step() and issue() events
  bool done_ = false;
  Tick finish_tick_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t mem_accesses_ = 0;
};

}  // namespace pipo::oracle
