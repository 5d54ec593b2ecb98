// Property-style structural checks: after arbitrary random multi-core
// traffic, the machine must satisfy the inclusion, directory and
// single-writer invariants — under every defense, including the ones
// that deliberately bend inclusion (RIC) or victim selection (SHARP).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/system.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

using InvariantParam = std::tuple<DefenseKind, std::uint64_t /*seed*/>;

class RandomTraffic : public ::testing::TestWithParam<InvariantParam> {};

TEST_P(RandomTraffic, InvariantsHoldThroughout) {
  const auto [kind, seed] = GetParam();
  SystemConfig cfg = testcfg::mini();
  cfg.defense = kind;
  cfg.monitor.enabled = (kind == DefenseKind::kPiPoMonitor);
  cfg.dir_monitor.sets = 64;
  cfg.dir_monitor.ways = 4;
  System sys(cfg);
  Rng rng(seed);

  Tick t = 0;
  for (int i = 0; i < 4000; ++i) {
    const CoreId core = static_cast<CoreId>(rng.below(cfg.num_cores));
    // Mix of hot (shared across cores) and cold addresses so upgrades,
    // downgrades, invalidations and back-invalidations all fire.
    const Addr addr = rng.chance(0.5)
                          ? static_cast<Addr>(rng.below(64)) * 64
                          : static_cast<Addr>(rng.below(1 << 16)) * 64;
    const AccessType type = rng.chance(0.3) ? AccessType::kStore
                                            : AccessType::kLoad;
    const bool bypass = rng.chance(0.1) && type == AccessType::kLoad;
    sys.access(t, core, addr, type, bypass);
    t += 1 + rng.below(200);
    if (i % 256 == 0) {
      sys.drain_prefetches(t);
      const std::string violation = sys.check_invariants();
      ASSERT_EQ(violation, "") << "after " << i << " accesses";
    }
  }
  sys.drain_prefetches(t + 10'000);
  EXPECT_EQ(sys.check_invariants(), "");
  EXPECT_GT(sys.stats().accesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Defenses, RandomTraffic,
    ::testing::Values(
        InvariantParam{DefenseKind::kNone, 1},
        InvariantParam{DefenseKind::kNone, 2},
        InvariantParam{DefenseKind::kPiPoMonitor, 1},
        InvariantParam{DefenseKind::kPiPoMonitor, 2},
        InvariantParam{DefenseKind::kPiPoMonitor, 3},
        InvariantParam{DefenseKind::kDirectoryMonitor, 1},
        InvariantParam{DefenseKind::kSharp, 1},
        InvariantParam{DefenseKind::kBitp, 1},
        InvariantParam{DefenseKind::kRic, 1},
        InvariantParam{DefenseKind::kRic, 2}),
    [](const ::testing::TestParamInfo<InvariantParam>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Invariants, FreshSystemIsConsistent) {
  System sys(testcfg::mini());
  EXPECT_EQ(sys.check_invariants(), "");
}

TEST(Invariants, DetectsViolationsWhenStateIsCorrupted) {
  // The checker itself must not be a tautology: manufacture a violation
  // by invalidating an L3 line behind the hierarchy's back.
  System sys(testcfg::mini_baseline());
  sys.access(0, 0, 0x4000, AccessType::kLoad);
  ASSERT_EQ(sys.check_invariants(), "");
  sys.l3().invalidate(line_of(0x4000));
  EXPECT_NE(sys.check_invariants(), "");
}

// ---------------------------------------------------------------------
// The L2 residency records (CacheLine::inner on L2 lines, outer_way on
// L1 lines): an L2 eviction back-invalidates exactly the L1 copies its
// bits name.

struct ResidencyCase {
  const char* name;
  bool in_l1i;
  bool in_l1d;
};

// gtest's default printer dumps the struct's bytes, `name`'s address
// among them, into every listed test name; under ASLR that made the
// names differ from one run of the binary to the next.
void PrintTo(const ResidencyCase& rc, std::ostream* os) { *os << rc.name; }

class L2EvictionResidency : public ::testing::TestWithParam<ResidencyCase> {};

TEST_P(L2EvictionResidency, EachL1LosesExactlyItsCopy) {
  const ResidencyCase rc = GetParam();
  System sys(testcfg::mini_baseline());
  CacheArray& l1i = sys.l1i(0);
  CacheArray& l1d = sys.l1d(0);
  CacheArray& l2 = sys.l2(0);
  // mini(): L1 sets repeat every 16 lines, L2 sets every 32. `a` and
  // e1..e4 share one L2 set (4 ways) and one L1 set (2 ways).
  const LineAddr a = 0x100;
  const LineAddr e1 = a + 32, e2 = a + 64, e3 = a + 96, e4 = a + 128;
  Tick now = 0;
  const auto run = [&](LineAddr line, AccessType type) {
    sys.access(now, 0, byte_of(line), type);
    now += 500;
  };
  // L1 hits: they keep `a` most recent in the L1s that hold it without
  // touching the L2, where `a` stays least recent.
  const auto retouch = [&] {
    if (rc.in_l1i) run(a, AccessType::kInstFetch);
    if (rc.in_l1d) run(a, AccessType::kLoad);
  };
  if (rc.in_l1i || !rc.in_l1d) run(a, AccessType::kInstFetch);
  if (rc.in_l1d) run(a, AccessType::kLoad);
  if (!rc.in_l1i && !rc.in_l1d) {
    // Two L1-congruent lines from another L2 set push `a` out of L1I.
    run(a + 16, AccessType::kInstFetch);
    run(a + 48, AccessType::kInstFetch);
  }
  // Fill the rest of the L2 set: e1, e2 through L1I, e3 through L1D.
  run(e1, AccessType::kInstFetch);
  retouch();
  run(e2, AccessType::kInstFetch);
  retouch();
  run(e3, AccessType::kLoad);
  retouch();

  const auto l2slot = l2.lookup(a);
  ASSERT_TRUE(l2slot.has_value());
  const std::uint8_t want = (rc.in_l1i ? kInnerL1i : 0) |
                            (rc.in_l1d ? kInnerL1d : 0);
  ASSERT_EQ(l2.line(*l2slot).inner, want);
  ASSERT_EQ(l1i.lookup(a).has_value(), rc.in_l1i);
  ASSERT_EQ(l1d.lookup(a).has_value(), rc.in_l1d);
  ASSERT_EQ(sys.check_invariants(), "");

  // L1I's lines other than `a` before the eviction.
  std::vector<LineAddr> l1i_kept;
  for (LineAddr line : {a + 16, a + 48, e1, e2}) {
    if (l1i.lookup(line)) l1i_kept.push_back(line);
  }
  const std::uint64_t l1i_before = l1i.valid_count();
  const std::uint64_t l1d_before = l1d.valid_count();
  const std::uint64_t l2_evictions = sys.stats().l2_evictions;

  run(e4, AccessType::kLoad);  // the L2 evicts `a`, its LRU line

  EXPECT_EQ(sys.stats().l2_evictions, l2_evictions + 1);
  EXPECT_FALSE(l2.lookup(a).has_value());
  EXPECT_FALSE(l1i.lookup(a).has_value());
  EXPECT_FALSE(l1d.lookup(a).has_value());
  // L1I received nothing, so it lost `a` if it held it and nothing else.
  EXPECT_EQ(l1i.valid_count(), l1i_before - (rc.in_l1i ? 1 : 0));
  for (LineAddr line : l1i_kept) {
    EXPECT_TRUE(l1i.lookup(line).has_value()) << std::hex << line;
  }
  // L1D received e4 in a way that was free or that `a` freed.
  EXPECT_EQ(l1d.valid_count(), l1d_before + (rc.in_l1d ? 0 : 1));
  EXPECT_TRUE(l1d.lookup(e3).has_value());
  EXPECT_TRUE(l1d.lookup(e4).has_value());
  EXPECT_EQ(sys.check_invariants(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Holders, L2EvictionResidency,
    ::testing::Values(ResidencyCase{"Neither", false, false},
                      ResidencyCase{"L1iOnly", true, false},
                      ResidencyCase{"L1dOnly", false, true},
                      ResidencyCase{"Both", true, true}),
    [](const ::testing::TestParamInfo<ResidencyCase>& info) {
      return std::string(info.param.name);
    });

/// Core 0 loads and fetches one line, so both L1s and the L2 hold it.
struct ResidentLine {
  System sys{testcfg::mini_baseline()};
  LineAddr line = line_of(0x4000);
  ResidentLine() {
    sys.access(0, 0, byte_of(line), AccessType::kLoad);
    sys.access(500, 0, byte_of(line), AccessType::kInstFetch);
  }
  CacheLine& l2_line() { return sys.l2(0).line(*sys.l2(0).lookup(line)); }
  CacheLine& l1d_line() { return sys.l1d(0).line(*sys.l1d(0).lookup(line)); }
};

TEST(Invariants, DetectsAClearedResidencyBit) {
  ResidentLine r;
  ASSERT_EQ(r.sys.check_invariants(), "");
  r.l2_line().inner &= static_cast<std::uint8_t>(~kInnerL1d);
  EXPECT_NE(r.sys.check_invariants(), "");
}

TEST(Invariants, DetectsAResidencyBitNoL1Backs) {
  ResidentLine r;
  // Drop the L1D copy the way an L1 eviction would, so the records are
  // consistent, then re-set the bit.
  ASSERT_TRUE(r.sys.l1d(0).invalidate(r.line).has_value());
  r.l2_line().inner &= static_cast<std::uint8_t>(~kInnerL1d);
  ASSERT_EQ(r.sys.check_invariants(), "");
  r.l2_line().inner |= kInnerL1d;
  EXPECT_NE(r.sys.check_invariants(), "");
}

TEST(Invariants, DetectsAWrongOuterWay) {
  ResidentLine r;
  ASSERT_EQ(r.sys.check_invariants(), "");
  CacheLine& l1 = r.l1d_line();
  l1.outer_way =
      static_cast<std::uint8_t>((l1.outer_way + 1) % r.sys.l2(0).ways());
  EXPECT_NE(r.sys.check_invariants(), "");
}

TEST(Invariants, DetectsAnL2LineNamingTheWrongLlcWay) {
  ResidentLine r;
  ASSERT_EQ(r.sys.check_invariants(), "");
  CacheLine& l2 = r.l2_line();
  const std::uint32_t llc_ways = r.sys.l3().slice(0).ways();
  l2.outer_way = static_cast<std::uint8_t>((l2.outer_way + 1) % llc_ways);
  EXPECT_NE(r.sys.check_invariants(), "");
}

}  // namespace
}  // namespace pipo
