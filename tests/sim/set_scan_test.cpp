// Pins the cache-array work an access costs, as
// CoreModel.IdleGapCostsAHandfulOfEvents pins events: every CacheArray
// set scan goes through probe(), which counts it, so scans per access is
// a deterministic work count. Each level scans a line's set once per
// access (fills consume the walk's miss probe, and the L2's residency
// bits name the L1s a coherence action must visit), so a walk that
// reaches memory costs about one scan per level.
#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "workload/mixes.h"

namespace pipo {
namespace {

class SetScans : public ::testing::TestWithParam<DefenseKind> {};

TEST_P(SetScans, StayNearOnePerLevelPerAccess) {
  const DefenseKind kind = GetParam();
  // RIC re-registers or invalidates orphan copies on every memory fill
  // by probing the other cores' L2s, so it gets a looser budget.
  const double budget = kind == DefenseKind::kRic ? 5.5 : 3.0;
  for (unsigned mix : {1u, 3u, 7u}) {
    const SystemConfig cfg = SystemConfig::with_defense(kind);
    Simulation sim(cfg);
    auto workloads = make_mix(mix, 20'000, /*seed=*/42, /*ws_divisor=*/16);
    for (CoreId c = 0; c < cfg.num_cores; ++c) {
      sim.set_workload(c, std::move(workloads[c]));
    }
    sim.run();
    const System& sys = sim.system();
    ASSERT_GT(sys.stats().accesses, 0u);
    const double per_access = static_cast<double>(sys.probes()) /
                              static_cast<double>(sys.stats().accesses);
    EXPECT_LE(per_access, budget) << "mix " << mix;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Defenses, SetScans,
    ::testing::Values(DefenseKind::kNone, DefenseKind::kPiPoMonitor,
                      DefenseKind::kDirectoryMonitor, DefenseKind::kSharp,
                      DefenseKind::kBitp, DefenseKind::kRic),
    [](const ::testing::TestParamInfo<DefenseKind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace pipo
