#include "cache/replacement.h"

#include <gtest/gtest.h>

namespace pipo {
namespace {

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruPolicy lru(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) lru.on_fill(0, w);
  // Access 0,1,2 — way 3 is now LRU.
  lru.on_access(0, 0);
  lru.on_access(0, 1);
  lru.on_access(0, 2);
  EXPECT_EQ(lru.victim(0), 3u);
  lru.on_access(0, 3);
  EXPECT_EQ(lru.victim(0), 0u);
}

TEST(Lru, SetsAreIndependent) {
  LruPolicy lru(2, 2);
  lru.on_fill(0, 0);
  lru.on_fill(0, 1);
  lru.on_fill(1, 1);
  lru.on_fill(1, 0);
  EXPECT_EQ(lru.victim(0), 0u);
  EXPECT_EQ(lru.victim(1), 1u);
}

TEST(Lru, InvalidatedWayBecomesVictim) {
  LruPolicy lru(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) lru.on_fill(0, w);
  lru.on_invalidate(0, 2);
  EXPECT_EQ(lru.victim(0), 2u);
}

}  // namespace
}  // namespace pipo
