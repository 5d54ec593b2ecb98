// Byte-identical reproducibility of whole-system simulation: the engine
// guarantees (tick, seq) FIFO event ordering, so two runs from the same
// SystemConfig and seeds must agree on every counter and every finish
// tick. This pins the scheduling discipline across engine refactors.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "tests/sim/test_configs.h"
#include "workload/mixes.h"

namespace pipo {
namespace {

using testcfg::mini;

struct RunResult {
  Tick finish = 0;
  Tick queue_now = 0;
  System::Stats stats;
  std::vector<std::uint64_t> core_instructions;
  std::vector<Tick> core_finish;
};

RunResult run_once(const SystemConfig& cfg, std::uint64_t seed,
                   Tick max_ticks = ~Tick{0}) {
  Simulation sim(cfg);
  auto wls = make_mix(1, 2000, seed, 64);
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    sim.set_workload(c, std::move(wls[c]));
  }
  RunResult r;
  r.finish = sim.run(max_ticks);
  r.queue_now = sim.queue().now();
  r.stats = sim.system().stats();
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    r.core_instructions.push_back(sim.core(c).instructions());
    r.core_finish.push_back(sim.core(c).done() ? sim.core(c).finish_tick()
                                               : ~Tick{0});
  }
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.queue_now, b.queue_now);
  static_assert(std::is_trivially_copyable_v<System::Stats>);
  EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof(System::Stats)), 0)
      << "System::Stats diverged between identical runs";
  EXPECT_EQ(a.core_instructions, b.core_instructions);
  EXPECT_EQ(a.core_finish, b.core_finish);
}

TEST(Determinism, IdenticalConfigAndSeedsGiveByteIdenticalStats) {
  const SystemConfig cfg = mini();
  expect_identical(run_once(cfg, 7), run_once(cfg, 7));
}

TEST(Determinism, HoldsUnderEveryDefense) {
  for (DefenseKind kind :
       {DefenseKind::kNone, DefenseKind::kPiPoMonitor, DefenseKind::kSharp,
        DefenseKind::kBitp, DefenseKind::kRic,
        DefenseKind::kDirectoryMonitor}) {
    SystemConfig cfg = mini();
    cfg.defense = kind;
    cfg.monitor.enabled = (kind == DefenseKind::kPiPoMonitor);
    expect_identical(run_once(cfg, 11), run_once(cfg, 11));
  }
}

TEST(Determinism, HoldsWithTickCap) {
  // A max_ticks cap cuts the run mid-flight; the truncation point must be
  // reproducible too (pins run_active's crossing-event semantics).
  const SystemConfig cfg = mini();
  expect_identical(run_once(cfg, 13, 50'000), run_once(cfg, 13, 50'000));
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the comparison has teeth: different workload seeds
  // must actually produce different trajectories.
  const SystemConfig cfg = mini();
  const RunResult a = run_once(cfg, 17);
  const RunResult b = run_once(cfg, 18);
  EXPECT_NE(std::memcmp(&a.stats, &b.stats, sizeof(System::Stats)), 0);
}

}  // namespace
}  // namespace pipo
