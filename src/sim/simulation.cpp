#include "sim/simulation.h"

#include <algorithm>

namespace pipo {

void Simulation::schedule_uncore_tick(Tick when) {
  queue_.schedule(when, [this] {
    const Tick now = queue_.now();
    system_.drain_prefetches(now);
    // Stop once all cores are done (or the limit is reached) so the
    // queue can drain.
    if (running_cores_ == 0 || now >= run_limit_) return;
    // Re-arm at the first boundary at or after the earliest tick at which
    // the drain or the stop check could see a change (see simulation.h
    // for why the boundaries skipped in between are no-ops).
    Tick wake = std::min(system_.next_drain_tick(), run_limit_);
    if (!queue_.empty()) wake = std::min(wake, queue_.next_tick());
    const Tick periods =
        wake > now ? (wake - now - 1) / kUncoreTickPeriod + 1 : 1;
    // No representable boundary lies at or after `wake`.
    if (periods > (kNeverTick - now) / kUncoreTickPeriod) return;
    schedule_uncore_tick(now + periods * kUncoreTickPeriod);
  });
}

Tick Simulation::run(Tick max_ticks) {
  // A previous tick-capped run may have left core step/issue events (and
  // the uncore tick) queued; their CoreModels die with cores_.clear()
  // below, so dispatching them would be a use-after-free.
  queue_.clear();
  cores_.clear();
  running_cores_ = cfg_.num_cores;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    if (!workloads_[c]) {
      throw std::logic_error("Simulation::run: core " + std::to_string(c) +
                             " has no workload");
    }
    cores_.push_back(std::make_unique<CoreModel>(
        c, &system_, &queue_, workloads_[c].get(), &running_cores_));
    cores_.back()->start(queue_.now());
  }
  run_limit_ = max_ticks;
  schedule_uncore_tick(queue_.now() + kUncoreTickPeriod);

  events_dispatched_ = queue_.run_active(max_ticks);

  Tick finish = 0;
  for (const auto& c : cores_) {
    finish = std::max(finish, c->done() ? c->finish_tick() : queue_.now());
  }
  return finish;
}

}  // namespace pipo
