#include "sim/system.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

using testcfg::mini;

TEST(System, ColdMissGoesToMemory) {
  System sys(mini());
  const auto out = sys.access(0, 0, 0x10000, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kMemory);
  // 35 (L3) + 200 (DRAM), no queueing on an idle channel.
  EXPECT_EQ(out.latency, 235u);
  EXPECT_EQ(sys.stats().l3_misses, 1u);
}

TEST(System, SecondAccessHitsL1) {
  System sys(mini());
  sys.access(0, 0, 0x10000, AccessType::kLoad);
  const auto out = sys.access(300, 0, 0x10000, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kL1);
  EXPECT_EQ(out.latency, 2u);
}

TEST(System, SameLineDifferentOffsetHitsL1) {
  System sys(mini());
  sys.access(0, 0, 0x10000, AccessType::kLoad);
  const auto out = sys.access(300, 0, 0x10020, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kL1);
}

TEST(System, L1EvictionLeavesL2Hit) {
  System sys(mini());
  const Addr target = 0;
  sys.access(0, 0, target, AccessType::kLoad);
  // L1D: 16 sets, 2 ways. Fill the target's L1 set with two more lines
  // (stride = 16 lines = 1024 bytes).
  sys.access(300, 0, target + 1024, AccessType::kLoad);
  sys.access(600, 0, target + 2048, AccessType::kLoad);
  const auto out = sys.access(900, 0, target, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kL2);
  EXPECT_EQ(out.latency, 18u);
}

TEST(System, L2EvictionLeavesL3Hit) {
  System sys(mini());
  const Addr target = 0;
  sys.access(0, 0, target, AccessType::kLoad);
  // L2: 32 sets, 4 ways (stride 32 lines = 2048 bytes). Four extra lines
  // evict the target from L2 (and L1 via inclusion); L3 still holds it.
  Tick t = 300;
  for (int i = 1; i <= 4; ++i) {
    sys.access(t, 0, target + static_cast<Addr>(i) * 2048,
               AccessType::kLoad);
    t += 300;
  }
  const auto out = sys.access(t, 0, target, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kL3);
  EXPECT_EQ(out.latency, 35u);
  EXPECT_GT(sys.stats().l2_evictions, 0u);
}

TEST(System, InstFetchUsesL1I) {
  System sys(mini());
  sys.access(0, 0, 0x4000, AccessType::kInstFetch);
  EXPECT_TRUE(sys.l1i(0).lookup(line_of(0x4000)).has_value());
  EXPECT_FALSE(sys.l1d(0).lookup(line_of(0x4000)).has_value());
  // A data load of the same line hits L2 (not L1D).
  const auto out = sys.access(300, 0, 0x4000, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kL2);
}

TEST(System, InclusionInvariantHolds) {
  // Every line in L1/L2 must be in L3 (inclusive hierarchy).
  System sys(mini());
  Rng rng(3);
  Tick t = 0;
  for (int i = 0; i < 500; ++i) {
    const CoreId core = static_cast<CoreId>(rng.below(4));
    const Addr a = byte_of(rng.below(1 << 12));
    const auto type =
        rng.chance(0.3) ? AccessType::kStore : AccessType::kLoad;
    sys.access(t, core, a, type);
    t += 300;
  }
  for (CoreId c = 0; c < 4; ++c) {
    for (CacheArray* arr : {&sys.l1i(c), &sys.l1d(c), &sys.l2(c)}) {
      for (std::size_t set = 0; set < arr->num_sets(); ++set) {
        for (std::uint32_t w = 0; w < arr->ways(); ++w) {
          const CacheSlot slot{set, w};
          if (!arr->occupied(slot)) continue;
          ASSERT_TRUE(sys.l3().lookup(arr->tag(slot)).has_value())
              << "line " << arr->tag(slot) << " in core " << c
              << " private cache but not in L3";
        }
      }
    }
  }
}

TEST(System, BackInvalidationOnL3Eviction) {
  // Core 1 holds the line; core 0 fills the L3 set. The L3 eviction must
  // back-invalidate core 1's private copies (inclusive LLC). The fills
  // come from a different core because congruent lines also alias in the
  // filler's own L2 — its private copy would already be gone.
  System sys(mini());
  const Addr target = 0;
  sys.access(0, 1, target, AccessType::kLoad);
  ASSERT_TRUE(sys.l1d(1).lookup(0).has_value());
  // Evict the target's L3 set: 8 ways per slice set; fill with 8 more
  // congruent lines (stride 64 lines = 4096 bytes).
  Tick t = 300;
  for (int i = 1; i <= 8; ++i) {
    sys.access(t, 0, target + static_cast<Addr>(i) * 4096,
               AccessType::kLoad);
    t += 300;
  }
  EXPECT_FALSE(sys.l3().lookup(0).has_value());
  EXPECT_FALSE(sys.l1d(1).lookup(0).has_value());
  EXPECT_FALSE(sys.l2(1).lookup(0).has_value());
  EXPECT_GT(sys.stats().back_invalidations, 0u);
}

TEST(System, DirtyEvictionWritesBack) {
  System sys(mini());
  const Addr target = 0;
  sys.access(0, 0, target, AccessType::kStore);
  Tick t = 300;
  for (int i = 1; i <= 8; ++i) {
    sys.access(t, 0, target + static_cast<Addr>(i) * 4096,
               AccessType::kLoad);
    t += 300;
  }
  EXPECT_GT(sys.stats().writebacks, 0u);
  EXPECT_GT(sys.mem().writebacks(), 0u);
}

TEST(System, LlcMissThresholdBetweenHitAndMiss) {
  System sys(mini());
  const std::uint32_t thr = sys.llc_miss_threshold();
  EXPECT_GT(thr, sys.config().l3.latency);
  EXPECT_LT(thr, sys.config().l3.latency + sys.config().mem.dram_latency);
}

TEST(System, StatsAccessesCount) {
  System sys(mini());
  for (int i = 0; i < 10; ++i) {
    sys.access(i * 300, 0, 0x8000, AccessType::kLoad);
  }
  EXPECT_EQ(sys.stats().accesses, 10u);
  EXPECT_EQ(sys.stats().l1_hits, 9u);
}

}  // namespace
}  // namespace pipo
