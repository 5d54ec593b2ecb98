// The CacheGuard-style directory-extension baseline: same detection
// semantics as PiPoMonitor, conventional tagged table — and therefore
// deterministically reverse-engineerable, the weakness the Auto-Cuckoo
// filter exists to fix.
#include "defense/directory_monitor.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "filter/filter_config.h"
#include "tests/pipo/monitor_test_util.h"

namespace pipo {
namespace {

using testutil::pop_all_due;

DirectoryMonitorConfig small_table() {
  DirectoryMonitorConfig cfg;
  cfg.sets = 16;
  cfg.ways = 4;
  return cfg;
}

TEST(DirectoryMonitor, CapturesAtThreshold) {
  DirectoryMonitor mon(small_table());
  EXPECT_FALSE(mon.on_access(0x100).ping_pong);  // insert, counter 0
  EXPECT_FALSE(mon.on_access(0x100).ping_pong);  // 1
  EXPECT_FALSE(mon.on_access(0x100).ping_pong);  // 2
  const auto r = mon.on_access(0x100);           // 3 = secThr
  EXPECT_TRUE(r.ping_pong);
  EXPECT_EQ(r.security, 3u);
  EXPECT_EQ(mon.captures(), 1u);
}

TEST(DirectoryMonitor, RejectsCounterWidthsOutsideOneToEight) {
  // counter_max() shifts by counter_bits, so a width of 32 must be
  // rejected before anything evaluates it.
  for (std::uint32_t bits : {0u, 9u, 32u}) {
    DirectoryMonitorConfig cfg = small_table();
    cfg.counter_bits = bits;
    try {
      DirectoryMonitor mon(cfg);
      ADD_FAILURE() << "counter_bits " << bits << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("counter_bits"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DirectoryMonitor, CounterSaturates) {
  DirectoryMonitor mon(small_table());
  for (int i = 0; i < 20; ++i) mon.on_access(0x200);
  EXPECT_EQ(*mon.counter_of(0x200), mon.config().counter_max());
}

TEST(DirectoryMonitor, DistinctLinesTrackedIndependently) {
  DirectoryMonitor mon(small_table());
  mon.on_access(0x10);
  mon.on_access(0x10);
  mon.on_access(0x20);
  EXPECT_EQ(*mon.counter_of(0x10), 1u);
  EXPECT_EQ(*mon.counter_of(0x20), 0u);
}

TEST(DirectoryMonitor, DeterministicEvictionSetFlushesRecord) {
  // The reverse-engineering attack the paper's Section VI-B contrasts
  // against: with set = line mod sets and LRU replacement, exactly
  // `ways` same-set inserts deterministically evict any target record.
  // (The Auto-Cuckoo filter needs b*l expected fills — Fig 7.)
  const DirectoryMonitorConfig cfg = small_table();
  DirectoryMonitor mon(cfg);
  const LineAddr target = 0x5;
  mon.on_access(target);
  ASSERT_TRUE(mon.tracks(target));
  // `ways` congruent lines (same set, stride = sets).
  for (std::uint32_t i = 1; i <= cfg.ways; ++i) {
    mon.on_access(target + static_cast<LineAddr>(i) * cfg.sets);
  }
  EXPECT_FALSE(mon.tracks(target))
      << "LRU table must be flushed by exactly `ways` congruent inserts";
  EXPECT_EQ(mon.evictions(), 1u);
}

TEST(DirectoryMonitor, LruPrefersStaleVictim) {
  const DirectoryMonitorConfig cfg = small_table();
  DirectoryMonitor mon(cfg);
  // Fill one set, touching the first line last.
  mon.on_access(0x0);
  mon.on_access(0x0 + 16);
  mon.on_access(0x0 + 32);
  mon.on_access(0x0 + 48);
  mon.on_access(0x0);  // refresh line 0
  mon.on_access(0x0 + 64);  // evicts the LRU = line 16
  EXPECT_TRUE(mon.tracks(0x0));
  EXPECT_FALSE(mon.tracks(0x0 + 16));
}

TEST(DirectoryMonitor, PevictGateMatchesPipoSemantics) {
  DirectoryMonitor mon(small_table());
  for (int i = 0; i < 4; ++i) mon.on_access(0x300);  // captured
  // accessed + demand-caused: re-arm.
  EXPECT_TRUE(mon.on_pevict(100, 0x300, true, true));
  // unaccessed but still captured: re-arm.
  EXPECT_TRUE(mon.on_pevict(200, 0x300, false, true));
  // prefetch-caused: never.
  EXPECT_FALSE(mon.on_pevict(300, 0x300, true, false));
  // untracked line, unaccessed: drop.
  EXPECT_FALSE(mon.on_pevict(400, 0x999, false, true));
}

TEST(DirectoryMonitor, PrefetchAfterDelay) {
  DirectoryMonitor mon(small_table());
  for (int i = 0; i < 4; ++i) mon.on_access(0x400);
  ASSERT_TRUE(mon.on_pevict(100, 0x400, true, true));
  EXPECT_TRUE(pop_all_due(mon, 100).empty());
  EXPECT_EQ(mon.prefetches_issued(), 0u) << "counted when popped";
  const auto due = pop_all_due(mon, 100 + mon.config().prefetch_delay);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].line, 0x400u);
  EXPECT_TRUE(mon.tags_prefetch_fills());
  EXPECT_EQ(mon.prefetches_issued(), 1u);
}

TEST(DirectoryMonitor, StorageCostExceedsFilter) {
  // Section VII-D framing: for the same number of tracked lines, full
  // tags cost ~2.5x the Auto-Cuckoo entry (34+2+1 vs 12+2+1 bits).
  DirectoryMonitorConfig dir;
  dir.sets = 1024;
  dir.ways = 8;
  FilterConfig filter;  // paper default: same 8192 entries
  EXPECT_EQ(dir.entries(), filter.entries());
  EXPECT_GT(dir.storage_bits(), 2 * filter.storage_bits());
}

TEST(DirectoryMonitor, RejectsBadConfigs) {
  DirectoryMonitorConfig cfg = small_table();
  cfg.sets = 12;  // not a power of two
  EXPECT_THROW(DirectoryMonitor{cfg}, std::invalid_argument);
  cfg = small_table();
  cfg.ways = 0;
  EXPECT_THROW(DirectoryMonitor{cfg}, std::invalid_argument);
  cfg = small_table();
  cfg.sec_thr = 9;  // exceeds 2-bit counter
  EXPECT_THROW(DirectoryMonitor{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace pipo
