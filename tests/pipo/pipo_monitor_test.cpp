#include "pipo/pipo_monitor.h"

#include <gtest/gtest.h>

#include "tests/pipo/monitor_test_util.h"

namespace pipo {
namespace {

using testutil::pop_all_due;

MonitorConfig small_monitor() {
  MonitorConfig cfg;
  cfg.filter.l = 64;
  cfg.filter.b = 4;
  cfg.prefetch_delay = 32;
  return cfg;
}

TEST(PiPoMonitor, CapturesPingPongAtSecThr) {
  PiPoMonitor mon(small_monitor());
  EXPECT_FALSE(mon.on_access(0xAAA).ping_pong);  // insert (Security 0)
  EXPECT_FALSE(mon.on_access(0xAAA).ping_pong);  // Security 1
  EXPECT_FALSE(mon.on_access(0xAAA).ping_pong);  // Security 2
  const auto r = mon.on_access(0xAAA);           // Security 3 = secThr
  EXPECT_TRUE(r.ping_pong);
  EXPECT_EQ(r.security, 3u);
  EXPECT_EQ(mon.captures(), 1u);
  EXPECT_EQ(mon.accesses(), 4u);
}

TEST(PiPoMonitor, DisabledMonitorIsInert) {
  MonitorConfig cfg = small_monitor();
  cfg.enabled = false;
  PiPoMonitor mon(cfg);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(mon.on_access(0xBBB).ping_pong);
  }
  mon.on_pevict(100, 0xBBB, /*accessed=*/true, /*demand=*/true);
  EXPECT_TRUE(pop_all_due(mon, 1'000'000).empty());
  EXPECT_EQ(mon.accesses(), 0u);
  EXPECT_EQ(mon.pevicts(), 0u);
}

TEST(PiPoMonitor, PrefetchIssuesAfterDelay) {
  PiPoMonitor mon(small_monitor());
  ASSERT_TRUE(mon.on_pevict(100, 0xCCC, /*accessed=*/true, /*demand=*/true));
  EXPECT_EQ(mon.pevicts(), 1u);
  EXPECT_TRUE(pop_all_due(mon, 100).empty());
  EXPECT_TRUE(pop_all_due(mon, 131).empty());
  EXPECT_EQ(mon.prefetches_issued(), 0u) << "counted when popped";
  const auto due = pop_all_due(mon, 132);  // 100 + 32
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].line, 0xCCCu);
  EXPECT_EQ(due[0].ready, 132u);
  EXPECT_EQ(mon.prefetches_issued(), 1u);
  // Popped exactly once.
  EXPECT_TRUE(pop_all_due(mon, 10'000).empty());
}

TEST(PiPoMonitor, MultiplePendingPrefetchesInFifoOrder) {
  PiPoMonitor mon(small_monitor());
  mon.on_pevict(10, 0x1, true, true);
  mon.on_pevict(20, 0x2, true, true);
  mon.on_pevict(30, 0x3, true, true);
  const auto due = pop_all_due(mon, 52);  // 42 and 52 ready
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].line, 0x1u);
  EXPECT_EQ(due[1].line, 0x2u);
  EXPECT_EQ(mon.next_due_tick(), 62u);
}

TEST(PiPoMonitor, NextDueTickTellsTickZeroFromNone) {
  // With no delay, a pEvict at tick 0 is due at tick 0 — a real tick,
  // which must not read as "nothing pending".
  MonitorConfig cfg = small_monitor();
  cfg.prefetch_delay = 0;
  PiPoMonitor mon(cfg);
  EXPECT_EQ(mon.next_due_tick(), kNeverTick);
  ASSERT_TRUE(mon.on_pevict(0, 0x7, /*accessed=*/true, /*demand=*/true));
  EXPECT_EQ(mon.next_due_tick(), 0u);
  ASSERT_EQ(pop_all_due(mon, 0).size(), 1u);
  EXPECT_EQ(mon.next_due_tick(), kNeverTick);
}

TEST(PiPoMonitor, PaperDefaultConfig) {
  const MonitorConfig cfg = MonitorConfig::paper_default();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.filter.l, 1024u);
  EXPECT_EQ(cfg.filter.b, 8u);
  EXPECT_EQ(cfg.filter.sec_thr, 3u);
}

TEST(PiPoMonitor, UnaccessedPevictRearmsWhileCaptured) {
  // kCapturedInFilter: an evicted, never-reaccessed prefetched line is
  // still restored while its filter record reports Ping-Pong.
  PiPoMonitor mon(small_monitor());
  for (int i = 0; i < 4; ++i) mon.on_access(0x123);  // capture (secThr=3)
  EXPECT_TRUE(mon.on_pevict(100, 0x123, /*accessed=*/false, /*demand=*/true));
  EXPECT_EQ(mon.pevicts_dropped(), 0u);
}

TEST(PiPoMonitor, UnaccessedPevictDroppedWhenNotCaptured) {
  PiPoMonitor mon(small_monitor());
  mon.on_access(0x456);  // inserted, Security 0 -- not Ping-Pong
  EXPECT_FALSE(mon.on_pevict(100, 0x456, /*accessed=*/false, /*demand=*/true));
  EXPECT_EQ(mon.pevicts_dropped(), 1u);
  EXPECT_EQ(mon.pevicts(), 1u);
}

TEST(PiPoMonitor, AccessedOnlyGateDropsUnaccessedPevicts) {
  MonitorConfig cfg = small_monitor();
  cfg.gate = PrefetchGate::kAccessedOnly;
  PiPoMonitor mon(cfg);
  for (int i = 0; i < 4; ++i) mon.on_access(0x789);  // captured
  EXPECT_FALSE(mon.on_pevict(100, 0x789, /*accessed=*/false, /*demand=*/true));
  EXPECT_TRUE(mon.on_pevict(200, 0x789, /*accessed=*/true, /*demand=*/true));
}

TEST(PiPoMonitor, PrefetchCausedEvictionNeverRearms) {
  // A monitor prefetch fill evicting a sibling must not chain into a
  // prefetch storm, even for a captured and accessed line.
  PiPoMonitor mon(small_monitor());
  for (int i = 0; i < 4; ++i) mon.on_access(0xABC);  // captured
  EXPECT_FALSE(mon.on_pevict(100, 0xABC, /*accessed=*/true,
                             /*demand=*/false));
  EXPECT_FALSE(mon.on_pevict(200, 0xABC, /*accessed=*/false,
                             /*demand=*/false));
  EXPECT_EQ(mon.pevicts_dropped(), 2u);
}

TEST(PiPoMonitor, RecapturedLineStaysPingPong) {
  // Once Security saturates, any later Access reports Ping-Pong again —
  // the mechanism that re-tags a line refetched after a quiet period.
  PiPoMonitor mon(small_monitor());
  for (int i = 0; i < 4; ++i) mon.on_access(0xFFF);
  EXPECT_TRUE(mon.on_access(0xFFF).ping_pong);
  EXPECT_TRUE(mon.on_access(0xFFF).ping_pong);
  EXPECT_EQ(mon.captures(), 3u);
}

}  // namespace
}  // namespace pipo
