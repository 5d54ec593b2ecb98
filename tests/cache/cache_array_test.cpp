#include "cache/cache_array.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "cache/sliced_cache.h"

namespace pipo {
namespace {

CacheConfig tiny_cache() {
  // 4 sets x 2 ways.
  return CacheConfig{"tiny", 8 * kLineSizeBytes, 2, 1};
}

TEST(CacheArray, FillThenLookup) {
  CacheArray c(tiny_cache());
  EXPECT_FALSE(c.lookup(0x10).has_value());
  const auto r = c.fill(0x10);
  EXPECT_FALSE(r.evicted.has_value());
  const auto slot = c.lookup(0x10);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(c.line(*slot).addr, 0x10u);
  EXPECT_TRUE(c.line(*slot).valid);
}

TEST(CacheArray, SetIndexUsesLowLineBits) {
  CacheArray c(tiny_cache());
  EXPECT_EQ(c.set_of(0), 0u);
  EXPECT_EQ(c.set_of(1), 1u);
  EXPECT_EQ(c.set_of(3), 3u);
  EXPECT_EQ(c.set_of(4), 0u);
  EXPECT_EQ(c.set_of(7), 3u);
}

TEST(CacheArray, IndexShiftSkipsSliceBits) {
  CacheArray c(tiny_cache(), /*index_shift=*/2);
  EXPECT_EQ(c.set_of(0b0000), 0u);
  EXPECT_EQ(c.set_of(0b0100), 1u);
  EXPECT_EQ(c.set_of(0b0111), 1u);  // low 2 bits ignored
  EXPECT_EQ(c.set_of(0b1100), 3u);
}

TEST(CacheArray, EvictionOnFullSet) {
  CacheArray c(tiny_cache());
  c.fill(0x00);          // set 0
  c.fill(0x04);          // set 0 (stride 4 lines)
  const auto r = c.fill(0x08);  // set 0, evicts LRU = 0x00
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->line, 0x00u);
  EXPECT_FALSE(c.lookup(0x00).has_value());
  EXPECT_TRUE(c.lookup(0x04).has_value());
  EXPECT_TRUE(c.lookup(0x08).has_value());
}

TEST(CacheArray, TouchChangesVictimOrder) {
  CacheArray c(tiny_cache());
  c.fill(0x00);
  c.fill(0x04);
  c.touch(*c.lookup(0x00));  // 0x04 becomes LRU
  const auto r = c.fill(0x08);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->line, 0x04u);
}

TEST(CacheArray, EvictedSnapshotCarriesMetadata) {
  CacheArray c(tiny_cache());
  c.fill(0x00);
  auto slot = *c.lookup(0x00);
  c.line(slot).state = Mesi::kModified;
  c.line(slot).dirty = true;
  c.line(slot).presence = 0b0101;
  c.line(slot).pp_tag = true;
  c.line(slot).pp_accessed = true;
  c.fill(0x04);
  const auto r = c.fill(0x08);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->state, Mesi::kModified);
  EXPECT_TRUE(r.evicted->dirty);
  EXPECT_EQ(r.evicted->presence, 0b0101u);
  EXPECT_TRUE(r.evicted->pp_tag);
  EXPECT_TRUE(r.evicted->pp_accessed);
}

TEST(CacheArray, InvalidateRemovesLine) {
  CacheArray c(tiny_cache());
  c.fill(0x10);
  const auto ev = c.invalidate(0x10);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 0x10u);
  EXPECT_FALSE(c.lookup(0x10).has_value());
  EXPECT_FALSE(c.invalidate(0x10).has_value());  // second time: no-op
}

TEST(CacheArray, FillPrefersInvalidatedWay) {
  CacheArray c(tiny_cache());
  c.fill(0x00);
  c.fill(0x04);
  c.invalidate(0x00);
  const auto r = c.fill(0x08);
  EXPECT_FALSE(r.evicted.has_value());  // reuses the free way
  EXPECT_TRUE(c.lookup(0x04).has_value());
}

TEST(CacheArray, ValidCountsTrackFills) {
  CacheArray c(tiny_cache());
  EXPECT_EQ(c.valid_count(), 0u);
  c.fill(0x00);
  c.fill(0x01);
  c.fill(0x04);
  EXPECT_EQ(c.valid_count(), 3u);
  EXPECT_EQ(c.valid_in_set(0), 2u);
  EXPECT_EQ(c.valid_in_set(1), 1u);
  c.clear();
  EXPECT_EQ(c.valid_count(), 0u);
}

TEST(CacheArray, DistinctTagsSameSetCoexist) {
  CacheArray c(tiny_cache());
  c.fill(0x00);
  c.fill(0x04);
  EXPECT_TRUE(c.lookup(0x00).has_value());
  EXPECT_TRUE(c.lookup(0x04).has_value());
  EXPECT_FALSE(c.lookup(0x08).has_value());
}

TEST(CacheArray, FullAddressStoredNotJustTag) {
  // Lines whose addresses alias in the set index must be distinguished.
  CacheArray c(tiny_cache());
  c.fill(0x00);
  c.fill(0x100);  // same set 0 if (0x100 & 3) == 0
  const auto s0 = c.lookup(0x00);
  const auto s1 = c.lookup(0x100);
  ASSERT_TRUE(s0 && s1);
  EXPECT_EQ(c.line(*s0).addr, 0x00u);
  EXPECT_EQ(c.line(*s1).addr, 0x100u);
}

TEST(CacheArray, RejectsBadWayCountsBeforeSizing) {
  // 0 ways: num_sets() would divide by zero if it ran before validation.
  const CacheConfig zero{"zero", 64 * kLineSizeBytes, 0, 1};
  EXPECT_THROW(CacheArray{zero}, std::invalid_argument);
  // SlicedCache hands the per-slice config straight to CacheArray.
  EXPECT_THROW(SlicedCache(zero, 4), std::invalid_argument);
  // 65 ways in one set: a valid geometry past the 64-bit occupancy mask.
  const CacheConfig wide{"wide", 65 * kLineSizeBytes, 65, 1};
  EXPECT_NO_THROW(wide.validate());
  EXPECT_THROW(CacheArray{wide}, std::invalid_argument);
}

}  // namespace
}  // namespace pipo
