#include "cache/sliced_cache.h"

#include <gtest/gtest.h>

namespace pipo {
namespace {

CacheConfig small_l3() {
  // 64 lines total, 2 ways -> with 4 slices: 16 lines, 8 sets per slice.
  return CacheConfig{"l3", 64 * kLineSizeBytes, 2, 35};
}

TEST(SlicedCache, SliceSelectionByLowLineBits) {
  SlicedCache c(small_l3(), 4);
  EXPECT_EQ(c.slice_of(0), 0u);
  EXPECT_EQ(c.slice_of(1), 1u);
  EXPECT_EQ(c.slice_of(2), 2u);
  EXPECT_EQ(c.slice_of(3), 3u);
  EXPECT_EQ(c.slice_of(4), 0u);
}

TEST(SlicedCache, CapacityDividedAcrossSlices) {
  SlicedCache c(small_l3(), 4);
  EXPECT_EQ(c.num_slices(), 4u);
  EXPECT_EQ(c.slice(0).config().size_bytes, 16u * kLineSizeBytes);
  EXPECT_EQ(c.slice(0).num_sets(), 8u);
  EXPECT_EQ(c.slice(0).index_shift(), 2u);
}

TEST(SlicedCache, FillRoutesToCorrectSlice) {
  SlicedCache c(small_l3(), 4);
  c.fill(5);  // slice 1
  EXPECT_TRUE(c.lookup(5).has_value());
  EXPECT_EQ(c.slice(1).valid_count(), 1u);
  EXPECT_EQ(c.slice(0).valid_count(), 0u);
  EXPECT_EQ(c.valid_count(), 1u);
}

TEST(SlicedCache, CongruentLinesContendInOneSliceSet) {
  SlicedCache c(small_l3(), 4);
  // Lines with identical low 5 bits (2 slice + 3 set... here 2 slice bits
  // + 3 set bits = stride 32) collide in the same slice set.
  const LineAddr base = 7;
  const std::uint64_t stride = 4 * 8;  // slices * sets_per_slice
  c.fill(base);
  c.fill(base + stride);
  const auto r = c.fill(base + 2 * stride);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->line, base);
}

TEST(SlicedCache, InvalidateRoutesByAddress) {
  SlicedCache c(small_l3(), 4);
  c.fill(9);
  EXPECT_TRUE(c.invalidate(9).has_value());
  EXPECT_FALSE(c.lookup(9).has_value());
}

TEST(SlicedCache, SingleSliceDegeneratesToPlainCache) {
  SlicedCache c(small_l3(), 1);
  EXPECT_EQ(c.slice_of(1234), 0u);
  EXPECT_EQ(c.slice(0).config().size_bytes, small_l3().size_bytes);
  EXPECT_EQ(c.slice(0).index_shift(), 0u);
}

TEST(SlicedCache, RejectsNonPow2SliceCount) {
  EXPECT_THROW(SlicedCache(small_l3(), 3), std::invalid_argument);
}

TEST(SlicedCache, ClearEmptiesAllSlices) {
  SlicedCache c(small_l3(), 4);
  for (LineAddr l = 0; l < 16; ++l) c.fill(l);
  EXPECT_EQ(c.valid_count(), 16u);
  c.clear();
  EXPECT_EQ(c.valid_count(), 0u);
}

}  // namespace
}  // namespace pipo
