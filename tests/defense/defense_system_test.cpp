// Integration of the Related Work baseline defenses with the cache
// hierarchy: SHARP's victim preference and alarms, BITP's restoration of
// back-invalidated lines, RIC's relaxed inclusion, and the
// DirectoryMonitor driving the same tag/pEvict/prefetch machinery as
// PiPoMonitor.
#include <gtest/gtest.h>

#include "sim/system.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

constexpr Addr kTarget = 0x0;
constexpr Addr kStride = 4096;  // L3-congruent line stride (bytes)

SystemConfig mini_with(DefenseKind kind) {
  SystemConfig cfg = testcfg::mini();
  cfg.defense = kind;
  cfg.monitor.enabled = (kind == DefenseKind::kPiPoMonitor);
  cfg.dir_monitor.sets = 256;
  cfg.dir_monitor.ways = 8;
  return cfg;
}

/// Loads 8 L3-congruent lines from `core` (fills one mini-config slice
/// set), returning the tick after the fills.
Tick fill_congruent(System& sys, Tick t, CoreId core, int round) {
  for (int i = 1; i <= 8; ++i) {
    sys.access(t, core,
               kTarget + static_cast<Addr>(round * 8 + i) * kStride,
               AccessType::kLoad);
    t += 300;
  }
  return t;
}

/// Five rounds of core 1 loading kTarget, then core 0 filling its LLC
/// set: the Ping-Pong pattern an enabled monitor captures. Returns the
/// tick after the last fill.
Tick reload_between_fills(System& sys) {
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = fill_congruent(sys, t, 0, round);
  }
  return t;
}

/// Eight rounds of core 0 probing nine L3-congruent lines LLC-direct,
/// one more than the set holds, from tick `t`; returns the tick after.
Tick probe_nine_congruent(System& sys, Tick t) {
  for (int round = 0; round < 8; ++round) {
    for (int i = 1; i <= 9; ++i) {
      sys.access(t, 0, kTarget + static_cast<Addr>(100 + i) * kStride,
                 AccessType::kLoad, /*bypass_private=*/true);
      t += 300;
    }
  }
  return t;
}

// ---------------------------------------------------------------- SHARP

TEST(SharpDefense, VictimLineSurvivesAttackerPrime) {
  // The victim holds kTarget privately; the attacker fills the set. SHARP
  // must evict attacker lines (unowned once their L1/L2 copies age out)
  // before touching the victim's line... with every line privately held,
  // at minimum the victim's line survives more often than under LRU.
  System sys(mini_with(DefenseKind::kSharp));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);
  t += 300;
  // The attacker primes with LLC-direct probes: its lines are unowned
  // (presence 0), so SHARP always victimizes them, never the target.
  for (int round = 0; round < 4; ++round) {
    for (int i = 1; i <= 8; ++i) {
      sys.access(t, 0, kTarget + static_cast<Addr>(round * 8 + i) * kStride,
                 AccessType::kLoad, /*bypass_private=*/true);
      t += 300;
    }
  }
  EXPECT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value())
      << "SHARP must prefer unowned victims over the victim's owned line";
  EXPECT_EQ(sys.stats().back_invalidations, 0u);
}

TEST(SharpDefense, AlarmsWhenAllCandidatesOwned) {
  System sys(mini_with(DefenseKind::kSharp));
  Tick t = 0;
  // Spread 8 congruent lines over all four cores (two per core, within
  // every private cache's associativity) so the whole 8-way LLC set is
  // privately owned; the 9th fill finds no unowned victim and must alarm.
  for (int i = 0; i < 8; ++i) {
    sys.access(t, static_cast<CoreId>(i % 4),
               kTarget + static_cast<Addr>(i + 1) * kStride,
               AccessType::kLoad);
    t += 300;
  }
  sys.access(t, 0, kTarget + 9 * kStride, AccessType::kLoad);
  EXPECT_GT(sys.sharp().alarms(), 0u);
}

// ----------------------------------------------------------------- BITP

TEST(BitpDefense, BackInvalidatedLineIsRestored) {
  System sys(mini_with(DefenseKind::kBitp));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);
  t += 300;
  t = fill_congruent(sys, t, 0, 0);  // evicts kTarget, back-invalidates
  ASSERT_GT(sys.stats().back_invalidations, 0u);
  sys.drain_prefetches(t + 10'000);
  EXPECT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value())
      << "BITP must prefetch the back-invalidated line back into the LLC";
  EXPECT_GT(sys.stats().prefetch_fills, 0u);
}

TEST(BitpDefense, NoReactionWithoutPrivateCopies) {
  System sys(mini_with(DefenseKind::kBitp));
  Tick t = 0;
  // LLC-direct fills (no private copies): evictions trigger no
  // back-invalidation, hence no BITP traffic.
  for (int round = 0; round < 3; ++round) {
    for (int i = 1; i <= 8; ++i) {
      sys.access(t, 0, kTarget + static_cast<Addr>(round * 8 + i) * kStride,
                 AccessType::kLoad, /*bypass_private=*/true);
      t += 300;
    }
  }
  sys.drain_prefetches(t + 10'000);
  EXPECT_EQ(sys.stats().prefetch_fills, 0u);
}

TEST(BitpDefense, FillsAreUntagged) {
  System sys(mini_with(DefenseKind::kBitp));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);
  t = fill_congruent(sys, t + 300, 0, 0);
  sys.drain_prefetches(t + 10'000);
  const auto slot = sys.l3().lookup(line_of(kTarget));
  ASSERT_TRUE(slot.has_value());
  EXPECT_FALSE(sys.l3().line_for(line_of(kTarget), *slot).pp_tag);
  EXPECT_EQ(sys.stats().pevicts, 0u);
}

// ------------------------------------------------------------------ RIC

TEST(RicDefense, ReadOnlyPrivateCopySurvivesLlcEviction) {
  System sys(mini_with(DefenseKind::kRic));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);  // read-only so far
  t += 300;
  t = fill_congruent(sys, t, 0, 0);  // evicts kTarget from L3
  EXPECT_EQ(sys.stats().back_invalidations, 0u);
  EXPECT_GT(sys.stats().ric_exemptions, 0u);
  // The victim still hits privately: the attacker learned nothing and the
  // victim pays no re-fetch.
  const auto out = sys.access(t, 1, kTarget, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kL1);
}

TEST(RicDefense, WrittenLineStillBackInvalidated) {
  System sys(mini_with(DefenseKind::kRic));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kStore);  // written: inclusion holds
  t += 300;
  t = fill_congruent(sys, t, 0, 0);
  EXPECT_GT(sys.stats().back_invalidations, 0u);
  const auto out = sys.access(t, 1, kTarget, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kMemory)
      << "a written line keeps strict inclusion and pays the miss";
}

TEST(RicDefense, SilentUpgradeDetectedThroughDirtyMerge) {
  System sys(mini_with(DefenseKind::kRic));
  Tick t = 0;
  // Load grants Exclusive; the store upgrades silently (no LLC message).
  sys.access(t, 1, kTarget, AccessType::kLoad);
  sys.access(t + 300, 1, kTarget, AccessType::kStore);
  // A read from another core downgrades the M copy and marks the LLC
  // line dirty + ever_written.
  sys.access(t + 600, 2, kTarget, AccessType::kLoad);
  t = fill_congruent(sys, t + 900, 0, 0);
  EXPECT_GT(sys.stats().back_invalidations, 0u)
      << "once the write surfaces, RIC must enforce inclusion again";
}

// ---------------------------------------------- DirectoryMonitor defense

TEST(DirectoryDefense, CapturesAndPrefetchesLikePipo) {
  System sys(mini_with(DefenseKind::kDirectoryMonitor));
  const Tick t = reload_between_fills(sys);
  sys.drain_prefetches(t + 10'000);
  EXPECT_GT(sys.directory_monitor().captures(), 0u);
  EXPECT_GT(sys.stats().prefetch_fills, 0u);
  EXPECT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value());
}

TEST(DirectoryDefense, PipoMonitorObjectStaysInert) {
  System sys(mini_with(DefenseKind::kDirectoryMonitor));
  reload_between_fills(sys);
  EXPECT_EQ(sys.monitor().accesses(), 0u);
  EXPECT_EQ(sys.monitor().captures(), 0u);
}

// ------------------------------------------------------------- plumbing

TEST(DefenseConfig, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(DefenseKind::kNone), "baseline");
  EXPECT_STREQ(to_string(DefenseKind::kPiPoMonitor), "PiPoMonitor");
  EXPECT_STREQ(to_string(DefenseKind::kDirectoryMonitor),
               "DirectoryMonitor");
  EXPECT_STREQ(to_string(DefenseKind::kSharp), "SHARP");
  EXPECT_STREQ(to_string(DefenseKind::kBitp), "BITP");
  EXPECT_STREQ(to_string(DefenseKind::kRic), "RIC");
}

TEST(DefenseConfig, WithDefenseFactorySetsMonitorFlag) {
  EXPECT_TRUE(SystemConfig::with_defense(DefenseKind::kPiPoMonitor)
                  .monitor.enabled);
  EXPECT_FALSE(SystemConfig::with_defense(DefenseKind::kSharp)
                   .monitor.enabled);
  EXPECT_EQ(SystemConfig::baseline().defense, DefenseKind::kNone);
}

TEST(DefenseConfig, BaselineSystemHasNoDefenseActivity) {
  System sys(mini_with(DefenseKind::kNone));
  const Tick t = reload_between_fills(sys);
  sys.drain_prefetches(t + 10'000);
  EXPECT_EQ(sys.stats().prefetch_fills, 0u);
  EXPECT_EQ(sys.stats().pp_tag_fills, 0u);
  EXPECT_EQ(sys.active_monitor().prefetches_issued(), 0u);
}

TEST(DefenseConfig, CacheSideDefensesHaveNoMonitorActivity) {
  // SHARP and RIC act on the cache side only: their active monitor is
  // the disabled PiPoMonitor, disabled even when the config enables it.
  // It must stay inert under the baseline test's traffic followed by
  // LLC-direct probes of nine lines of one 8-way set, which an enabled
  // monitor captures and prefetches.
  const auto run = [](System& sys) {
    const Tick t0 = reload_between_fills(sys);
    const Tick t = probe_nine_congruent(sys, t0);
    sys.drain_prefetches(t + 10'000);
  };
  {
    System pipo(mini_with(DefenseKind::kPiPoMonitor));
    run(pipo);
    ASSERT_GT(pipo.active_monitor().captures(), 0u);
    ASSERT_GT(pipo.active_monitor().prefetches_issued(), 0u);
  }
  for (const DefenseKind kind : {DefenseKind::kSharp, DefenseKind::kRic}) {
    SystemConfig cfg = mini_with(kind);
    cfg.monitor.enabled = true;
    System sys(cfg);
    run(sys);
    const MonitorIface& mon = sys.active_monitor();
    EXPECT_EQ(mon.captures(), 0u) << to_string(kind);
    EXPECT_EQ(mon.prefetches_issued(), 0u) << to_string(kind);
    EXPECT_EQ(mon.next_due_tick(), kNeverTick) << to_string(kind);
  }
}

}  // namespace
}  // namespace pipo
