// The LLC way an L2 line names (CacheLine::outer_way on L2 lines): an
// L2 eviction under an inclusive LLC releases its presence bit through
// that way without scanning the LLC set. The hint is checked before use,
// so a stale one costs one set scan and nothing else: under RIC, a line
// whose LLC entry was evicted keeps its private copies (an orphan), and
// another core's refetch can put the new entry in a different way.
#include <gtest/gtest.h>

#include "sim/system.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

// mini(): an L2 set repeats every 32 lines and an LLC set every 64
// (testcfg::mini_l3_stride). Lines x + 32 + 64k share x's L2 set and
// one LLC set that is not x's.
constexpr std::uint64_t kL2Stride = 32;
constexpr std::uint64_t kL3Stride = testcfg::mini_l3_stride();

struct Machine {
  explicit Machine(DefenseKind defense) : sys(config(defense)) {}
  static SystemConfig config(DefenseKind defense) {
    SystemConfig cfg = testcfg::mini();
    cfg.defense = defense;
    cfg.monitor.enabled = false;
    return cfg;
  }
  void load(CoreId core, LineAddr line) {
    sys.access(now, core, byte_of(line), AccessType::kLoad);
    now += 500;
  }
  /// Core `core` loads three lines of `x`'s L2 set but another LLC set,
  /// which leaves `x` the set's LRU line if it was loaded before them.
  void fill_l2_set_around(CoreId core, LineAddr x) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      load(core, x + kL2Stride + k * kL3Stride);
    }
  }
  /// Core `core` loads the L2 set's fourth line: `x` is evicted. Returns
  /// the LLC set scans that access took.
  std::uint64_t evict_from_l2(CoreId core, LineAddr x) {
    const std::uint64_t l2_evictions = sys.stats().l2_evictions;
    const std::uint64_t before = sys.l3().probes();
    load(core, x + kL2Stride + 3 * kL3Stride);
    EXPECT_EQ(sys.stats().l2_evictions, l2_evictions + 1);
    EXPECT_FALSE(sys.l2(core).lookup(x).has_value());
    return sys.l3().probes() - before;
  }
  std::uint8_t l2_hint(CoreId core, LineAddr x) {
    return sys.l2(core).line(*sys.l2(core).lookup(x)).outer_way;
  }

  System sys;
  Tick now = 0;
};

TEST(L2LlcWayHint, InclusiveEvictionScansNoLlcSet) {
  Machine m(DefenseKind::kNone);
  const LineAddr x = 0x100;
  m.load(0, x);
  m.load(1, x);
  const auto slot = m.sys.l3().lookup(x);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(m.l2_hint(0, x), slot->way);
  m.fill_l2_set_around(0, x);

  // The evicting access misses the L2 and scans the LLC once, for its
  // own line; the eviction adds no scan.
  EXPECT_EQ(m.evict_from_l2(0, x), 1u);
  const auto after = m.sys.l3().lookup(x);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->way, slot->way);
  EXPECT_EQ(m.sys.l3().line_for(x, *after).presence, 0b10u)
      << "core 0's presence bit must clear, core 1's must stay";
  EXPECT_EQ(m.sys.check_invariants(), "");
}

TEST(L2LlcWayHint, RicStaleHintFallsBackToOneScan) {
  Machine m(DefenseKind::kRic);
  const LineAddr x = 0x100;
  m.load(0, x);
  const auto old_slot = m.sys.l3().lookup(x);
  ASSERT_TRUE(old_slot.has_value());

  // Core 2 thrashes x's LLC set: x's never-written entry is evicted and
  // core 0 keeps its copy as a RIC orphan.
  const std::uint64_t exemptions = m.sys.stats().ric_exemptions;
  for (std::uint64_t k = 1; k <= 12; ++k) m.load(2, x + k * kL3Stride);
  ASSERT_FALSE(m.sys.l3().lookup(x).has_value());
  ASSERT_GT(m.sys.stats().ric_exemptions, exemptions);
  ASSERT_TRUE(m.sys.l2(0).lookup(x).has_value());

  // Core 1 refetches x into another way; the fill re-registers core 0.
  m.load(1, x);
  const auto new_slot = m.sys.l3().lookup(x);
  ASSERT_TRUE(new_slot.has_value());
  ASSERT_NE(new_slot->way, old_slot->way) << "the hint never went stale";
  ASSERT_EQ(m.sys.l3().line_for(x, *new_slot).presence, 0b11u);
  EXPECT_EQ(m.l2_hint(0, x), old_slot->way);

  m.fill_l2_set_around(0, x);
  // One scan for the evicting access's own line, one for the stale hint.
  EXPECT_EQ(m.evict_from_l2(0, x), 2u);
  EXPECT_EQ(m.sys.l3().lookup(x)->way, new_slot->way);
  EXPECT_EQ(m.sys.l3().line_for(x, *new_slot).presence, 0b10u)
      << "core 0's presence bit must clear on the new way";
  EXPECT_EQ(m.sys.check_invariants(), "");
}

}  // namespace
}  // namespace pipo
