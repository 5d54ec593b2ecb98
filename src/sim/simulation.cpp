#include "sim/simulation.h"

namespace pipo {

void Simulation::schedule_uncore_tick() {
  queue_.schedule_in(uncore_period_, [this] {
    system_.drain_prefetches(queue_.now());
    // Keep ticking while any core still runs and prefetches may be
    // pending; stop once all cores are done so the queue can drain.
    if (running_cores_ > 0 && queue_.now() < run_limit_) {
      schedule_uncore_tick();
    }
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
  schedule_uncore_tick();

  queue_.run_active(max_ticks);

  Tick finish = 0;
  for (const auto& c : cores_) {
    finish = std::max(finish, c->done() ? c->finish_tick() : queue_.now());
  }
  return finish;
}

}  // namespace pipo
