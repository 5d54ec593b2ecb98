#include "sim/core_model.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "tests/sim/test_configs.h"
#include "workload/mixes.h"
#include "workload/trace.h"

namespace pipo {
namespace {

using testcfg::mini;

std::unique_ptr<Simulation> make_idle_sim(const SystemConfig& cfg) {
  auto sim = std::make_unique<Simulation>(cfg);
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    sim->set_workload(c, std::make_unique<IdleWorkload>());
  }
  return sim;
}

TEST(CoreModel, ExecutesTraceAndRecordsLatencies) {
  auto sim = make_idle_sim(mini());
  std::vector<MemRequest> trace = {
      {0x1000, AccessType::kLoad, 0},
      {0x1000, AccessType::kLoad, 0},
      {0x2000, AccessType::kLoad, 5},
  };
  auto wl = std::make_unique<TraceWorkload>(trace);
  TraceWorkload* raw = wl.get();
  sim->set_workload(0, std::move(wl));
  sim->run();
  ASSERT_EQ(raw->latencies().size(), 3u);
  EXPECT_EQ(raw->latencies()[0], 235u);  // cold miss
  EXPECT_EQ(raw->latencies()[1], 2u);    // L1 hit
  EXPECT_EQ(raw->latencies()[2], 235u);  // cold miss after 5-cycle gap
}

TEST(CoreModel, InstructionCountIncludesGaps) {
  auto sim = make_idle_sim(mini());
  std::vector<MemRequest> trace = {
      {0x1000, AccessType::kLoad, 10},
      {0x1040, AccessType::kLoad, 0},
  };
  sim->set_workload(0, std::make_unique<TraceWorkload>(trace));
  sim->run();
  EXPECT_EQ(sim->core(0).instructions(), 12u);  // 2 mem + 10 gap
  EXPECT_EQ(sim->core(0).mem_accesses(), 2u);
}

TEST(CoreModel, FinishTickReflectsLatencies) {
  auto sim = make_idle_sim(mini());
  std::vector<MemRequest> trace = {{0x1000, AccessType::kLoad, 0}};
  sim->set_workload(0, std::move(std::make_unique<TraceWorkload>(trace)));
  const Tick finish = sim->run();
  EXPECT_GE(finish, 235u);
  EXPECT_LE(finish, 300u);
  EXPECT_TRUE(sim->core(0).done());
}

TEST(CoreModel, CoresRunConcurrently) {
  auto sim = make_idle_sim(mini());
  // Two cores, disjoint lines: both finish around the same tick rather
  // than serially.
  std::vector<MemRequest> t0, t1;
  for (int i = 0; i < 20; ++i) {
    t0.push_back({static_cast<Addr>(0x10000 + i * 64), AccessType::kLoad, 0});
    t1.push_back({static_cast<Addr>(0x90000 + i * 64), AccessType::kLoad, 0});
  }
  sim->set_workload(0, std::make_unique<TraceWorkload>(t0));
  sim->set_workload(1, std::make_unique<TraceWorkload>(t1));
  const Tick finish = sim->run();
  // Serial execution would need ~2 * 20 * 235; concurrent ~ 20 * 235 plus
  // channel contention.
  EXPECT_LT(finish, 2u * 20u * 235u);
  EXPECT_EQ(sim->total_instructions(), 40u);
}

TEST(CoreModel, RunHonorsMaxTicks) {
  auto sim = make_idle_sim(mini());
  std::vector<MemRequest> trace(1000, MemRequest{0x1000, AccessType::kLoad, 100});
  sim->set_workload(0, std::make_unique<TraceWorkload>(trace));
  sim->run(5000);
  EXPECT_FALSE(sim->core(0).done());
  EXPECT_LE(sim->queue().now(), 5200u);  // bounded promptly after limit
}

TEST(CoreModel, SecondRunAfterTickCapDiscardsStaleEvents) {
  // A capped run leaves core step/issue events queued; a fresh run()
  // must not dispatch them into the destroyed CoreModels.
  auto sim = make_idle_sim(mini());
  std::vector<MemRequest> trace(1000,
                                MemRequest{0x1000, AccessType::kLoad, 100});
  sim->set_workload(0, std::make_unique<TraceWorkload>(trace));
  sim->run(5000);
  EXPECT_FALSE(sim->core(0).done());
  sim->set_workload(0, std::make_unique<IdleWorkload>());
  const Tick finish = sim->run();  // all-idle second run completes cleanly
  EXPECT_TRUE(sim->core(0).done());
  EXPECT_GE(finish, 5000u);  // clock continues from the capped run
}

TEST(CoreModel, IdleGapCostsAHandfulOfEvents) {
  // The uncore tick skips the boundaries at which it has nothing to do,
  // so a million idle cycles between two accesses dispatch a few events
  // rather than one tick per 64 cycles (~15,600).
  SystemConfig cfg = mini();
  cfg.num_cores = 1;
  Simulation sim(cfg);
  std::vector<MemRequest> trace = {
      {0x1000, AccessType::kLoad, 0},
      {0x2000, AccessType::kLoad, 1'000'000},
  };
  sim.set_workload(0, std::make_unique<TraceWorkload>(trace));
  sim.run();
  EXPECT_TRUE(sim.core(0).done());
  EXPECT_LT(sim.events_dispatched(), 10u);
}

/// Forwards to the wrapped workload and records the most events pending
/// in the queue whenever its core asks for the next request.
class QueueDepthProbe : public Workload {
 public:
  QueueDepthProbe(std::unique_ptr<Workload> inner, const EventQueue* queue,
                  std::size_t* max_pending)
      : inner_(std::move(inner)), queue_(queue), max_pending_(max_pending) {}

  std::optional<MemRequest> next(Tick now) override {
    *max_pending_ = std::max(*max_pending_, queue_->pending());
    return inner_->next(now);
  }
  void on_complete(const MemRequest& req, Tick issued,
                   Tick completed) override {
    inner_->on_complete(req, issued, completed);
  }

 private:
  std::unique_ptr<Workload> inner_;
  const EventQueue* queue_;
  std::size_t* max_pending_;
};

TEST(Simulation, QueueHoldsOneEventPerCorePlusTheUncoreTick) {
  // The bound the event queue's sorted array relies on: every blocking
  // core has at most one event in flight and Simulation one uncore tick.
  // Inside next() the asking core holds no queued event (its own was
  // popped, or it runs ahead in place), so the deepest queue it can see
  // is num_cores.
  for (const unsigned mix : {1u, 3u, 7u}) {
    for (const DefenseKind d : {DefenseKind::kNone, DefenseKind::kPiPoMonitor,
                                DefenseKind::kBitp}) {
      const SystemConfig cfg = SystemConfig::with_defense(d);
      Simulation sim(cfg);
      auto workloads = make_mix(mix, 20'000, cfg.seed, 16);
      std::size_t max_pending = 0;
      for (CoreId c = 0; c < cfg.num_cores; ++c) {
        sim.set_workload(c, std::move(workloads[c]));
        sim.wrap_workload(c, [&](std::unique_ptr<Workload> inner) {
          return std::make_unique<QueueDepthProbe>(
              std::move(inner), &sim.queue(), &max_pending);
        });
      }
      sim.run();
      EXPECT_EQ(max_pending, cfg.num_cores)
          << "mix " << mix << " on " << to_string(d);
    }
  }
}

TEST(CoreModel, MissingWorkloadThrows) {
  Simulation sim(mini());
  sim.set_workload(0, std::make_unique<IdleWorkload>());
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(CoreModel, SetWorkloadOutOfRangeThrows) {
  Simulation sim(mini());
  EXPECT_THROW(sim.set_workload(99, std::make_unique<IdleWorkload>()),
               std::out_of_range);
}

}  // namespace
}  // namespace pipo
