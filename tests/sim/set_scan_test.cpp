// Pins the cache-array work an access costs, as
// CoreModel.IdleGapCostsAHandfulOfEvents pins events: every CacheArray
// set scan goes through probe(), which counts it, so scans per access is
// a deterministic work count. Each level scans a line's set once per
// access (fills consume the walk's miss probe, and the L2's residency
// bits name the L1s a coherence action must visit), so a walk that
// reaches memory costs about one scan per level.
//
// Within a scan, a way's full tag is read only when its fingerprint
// byte matches (CacheArray::fingerprint), so full-tag compares per
// probe count the work the fingerprints leave: about one per hit, and
// rarely any on a miss.
#include <cstdint>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "workload/mixes.h"

namespace pipo {
namespace {

class SetScans : public ::testing::TestWithParam<DefenseKind> {};

/// The work counts of `mix` (20k instructions per core, working sets /
/// 16) run under `kind`.
struct ScanCounts {
  std::uint64_t accesses = 0;
  std::uint64_t probes = 0;
  std::uint64_t tag_compares = 0;
};

ScanCounts run_mix(DefenseKind kind, unsigned mix) {
  const SystemConfig cfg = SystemConfig::with_defense(kind);
  Simulation sim(cfg);
  auto workloads = make_mix(mix, 20'000, /*seed=*/42, /*ws_divisor=*/16);
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    sim.set_workload(c, std::move(workloads[c]));
  }
  sim.run();
  const System& sys = sim.system();
  return ScanCounts{sys.stats().accesses, sys.probes(), sys.tag_compares()};
}

TEST_P(SetScans, StayNearOnePerLevelPerAccess) {
  const DefenseKind kind = GetParam();
  // RIC re-registers or invalidates orphan copies on every memory fill
  // by probing the other cores' L2s, so it gets a looser budget.
  const double budget = kind == DefenseKind::kRic ? 5.5 : 3.0;
  for (unsigned mix : {1u, 3u, 7u}) {
    const ScanCounts n = run_mix(kind, mix);
    ASSERT_GT(n.accesses, 0u);
    const double per_access =
        static_cast<double>(n.probes) / static_cast<double>(n.accesses);
    EXPECT_LE(per_access, budget) << "mix " << mix;
  }
}

TEST_P(SetScans, CompareUnderHalfATagPerProbe) {
  for (unsigned mix : {1u, 3u, 7u}) {
    const ScanCounts n = run_mix(GetParam(), mix);
    ASSERT_GT(n.probes, 0u);
    const double per_probe =
        static_cast<double>(n.tag_compares) / static_cast<double>(n.probes);
    EXPECT_LE(per_probe, 0.5) << "mix " << mix;
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
