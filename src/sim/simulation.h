// Top-level simulation driver: owns the event queue, the System and one
// CoreModel per core, runs them to completion and reports per-core and
// whole-run results. The gem5 `Simulation` object of this reproduction.
//
// Ownership: the Simulation owns everything it drives — the System (and
// through it the cache/filter/defense state), the EventQueue, the
// CoreModels it builds per run(), and the Workloads handed over via
// set_workload(). Workload pointers passed to CoreModels stay valid for
// the lifetime of the Simulation; CoreModels are torn down and rebuilt
// at the start of every run().
//
// Tick semantics: one tick is one core cycle. The queue's clock is
// monotone and shared by every component; it survives across runs (a
// second run() continues from the tick where the first stopped).
//
// Uncore tick. Besides the cores' own events, run() keeps one uncore
// tick in the queue that drains monitor prefetches while cores are idle.
// It fires on the boundaries start + k * kUncoreTickPeriod of the run's
// start tick, and only on those where it can matter: after draining at
// boundary B it re-arms at the first boundary X > B with X >= m, where m
// is the earliest of System::next_drain_tick(), the queue's next event
// and the run limit. Every skipped boundary lies before any due drain
// work and before any other event, so a tick there would have drained
// nothing and only re-armed itself; and since no event is scheduled
// between B and X - 64, the re-armed tick takes the same FIFO place
// among tick-X events as a tick re-armed at X - 64 would. Simulated
// results, the finish tick and the final clock are therefore identical
// to draining at every boundary (tests/oracle/uncore_skip_oracle_test
// replays that fixed chain as the reference).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "filter/observer.h"
#include "sim/core_model.h"
#include "sim/event_queue.h"
#include "sim/system.h"
#include "sim/system_config.h"
#include "sim/workload_if.h"

namespace pipo {

class Simulation {
 public:
  explicit Simulation(const SystemConfig& cfg,
                      FilterObserver* filter_observer = nullptr)
      : cfg_(cfg), system_(cfg, filter_observer) {
    workloads_.resize(cfg.num_cores);
  }

  /// Assigns (and takes ownership of) the workload driving `core`.
  void set_workload(CoreId core, std::unique_ptr<Workload> wl) {
    if (core >= cfg_.num_cores) throw std::out_of_range("core id");
    workloads_[core] = std::move(wl);
  }

  /// Recorder hook: replaces `core`'s already-assigned workload with
  /// `wrap(current)` — e.g. a TraceRecorder (workload/stream_trace.h)
  /// capturing the stream the run consumes — without disturbing the
  /// rest of the wiring. Call between set_workload() and run(); throws
  /// std::logic_error if no workload is assigned.
  template <typename Wrap>
  void wrap_workload(CoreId core, Wrap&& wrap) {
    if (core >= cfg_.num_cores) throw std::out_of_range("core id");
    if (!workloads_[core]) {
      throw std::logic_error("wrap_workload: core has no workload");
    }
    workloads_[core] = wrap(std::move(workloads_[core]));
  }

  /// Runs until every core's workload finishes or `max_ticks` elapses.
  /// Returns the tick at which the last core finished (= overall
  /// execution time, the metric of Fig 8(a)).
  ///
  /// Restartable: any events left over from a previous tick-capped run
  /// are cleared before the cores are rebuilt, so stale callbacks can
  /// never fire into dead CoreModels. The drive loop is
  /// EventQueue::run_active(max_ticks): the event that crosses the cap
  /// still executes (a started access completes), and the clock stops at
  /// the last dispatched event's tick rather than at max_ticks. A core
  /// runs its next step or issue in place when no pending event precedes
  /// it (EventQueue::advance_if_next), which changes no result: that
  /// phase runs at the tick and in the order the queue would give it.
  Tick run(Tick max_ticks = kNeverTick);

  System& system() { return system_; }
  const System& system() const { return system_; }
  EventQueue& queue() { return queue_; }

  const CoreModel& core(CoreId c) const { return *cores_[c]; }
  std::uint32_t num_cores() const { return cfg_.num_cores; }

  /// Sum of instructions retired across all cores.
  std::uint64_t total_instructions() const {
    std::uint64_t n = 0;
    for (const auto& c : cores_) n += c->instructions();
    return n;
  }

  /// Spacing of the uncore tick's boundaries; bounds how late a monitor
  /// prefetch can land while every core is idle.
  static constexpr Tick kUncoreTickPeriod = 64;

  /// Events the last run() dispatched: core steps and issues plus uncore
  /// ticks, the steps and issues a core ran in place included
  /// (EventQueue::ran_in_place() counts those alone, over the queue's
  /// life). A host-cost diagnostic that goes into no record.
  std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  void schedule_uncore_tick(Tick when);

  SystemConfig cfg_;
  System system_;
  EventQueue queue_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::vector<std::unique_ptr<CoreModel>> cores_;
  Tick run_limit_ = 0;
  std::uint64_t events_dispatched_ = 0;
  /// Cores whose workload has not finished; maintained by the CoreModels
  /// so the uncore tick decides liveness in O(1) instead of rescanning
  /// every core.
  std::uint32_t running_cores_ = 0;
};

}  // namespace pipo
