// Unit-level tests of the stateless defense engines (SHARP victim
// chooser, BITP prefetcher) in isolation from the System.
#include <gtest/gtest.h>

#include "defense/bitp.h"
#include "defense/sharp.h"
#include "tests/pipo/monitor_test_util.h"

namespace pipo {
namespace {

using testutil::pop_all_due;

CacheWay way_with(std::uint32_t presence) {
  CacheWay w;
  w.line.presence = presence;
  return w;
}

TEST(SharpChooser, PicksOnlyUnownedLines) {
  SharpChooser chooser(2);
  CacheWay set[4] = {way_with(1), way_with(0), way_with(2), way_with(0)};
  for (int i = 0; i < 50; ++i) {
    const auto way = chooser.choose(set, 4);
    ASSERT_TRUE(way.has_value());
    EXPECT_TRUE(*way == 1u || *way == 3u) << "chose owned way " << *way;
  }
  EXPECT_EQ(chooser.alarms(), 0u);
}

TEST(SharpChooser, AlarmsWhenEveryLineIsOwned) {
  SharpChooser chooser(3);
  CacheWay set[4] = {way_with(1), way_with(2), way_with(4), way_with(8)};
  const auto way = chooser.choose(set, 4);
  ASSERT_TRUE(way.has_value());
  EXPECT_LT(*way, 4u);
  EXPECT_EQ(chooser.alarms(), 1u);
}

TEST(SharpChooser, RandomChoiceCoversAllUnownedWays) {
  SharpChooser chooser(4);
  CacheWay set[4] = {way_with(0), way_with(0), way_with(0), way_with(0)};
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 200; ++i) {
    const auto way = chooser.choose(set, 4);
    ASSERT_TRUE(way.has_value());
    seen[*way] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(BitpPrefetcher, QueuesOnBackInvalidation) {
  BitpPrefetcher bitp(BitpConfig{});
  bitp.on_back_invalidation(100, 0xABC);
  EXPECT_EQ(bitp.prefetches_issued(), 1u) << "counted when scheduled";
  EXPECT_TRUE(pop_all_due(bitp, 100).empty());
  const auto due = pop_all_due(bitp, 100 + 32);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].line, 0xABCu);
  EXPECT_FALSE(bitp.tags_prefetch_fills())
      << "BITP fills carry no Ping-Pong tag";
  EXPECT_EQ(bitp.prefetches_issued(), 1u);
}

TEST(BitpPrefetcher, DetectsNothingOnAccess) {
  BitpPrefetcher bitp(BitpConfig{});
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(bitp.on_access(0xDEF).ping_pong);
  }
  EXPECT_FALSE(bitp.on_pevict(0, 0xDEF, true, true));
}

TEST(BitpPrefetcher, FifoOrderAcrossInvalidations) {
  BitpPrefetcher bitp(BitpConfig{});
  bitp.on_back_invalidation(10, 0x1);
  bitp.on_back_invalidation(20, 0x2);
  bitp.on_back_invalidation(30, 0x3);
  const auto due = pop_all_due(bitp, 55);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].line, 0x1u);
  EXPECT_EQ(due[1].line, 0x2u);
  EXPECT_EQ(pop_all_due(bitp, 100).size(), 1u);
}

}  // namespace
}  // namespace pipo
