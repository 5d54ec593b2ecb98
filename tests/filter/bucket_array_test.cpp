#include "filter/bucket_array.h"

#include <set>

#include <gtest/gtest.h>

namespace pipo {
namespace {

FilterConfig small_config() {
  FilterConfig cfg;
  cfg.l = 16;
  cfg.b = 4;
  cfg.f = 8;
  return cfg;
}

TEST(BucketArray, FingerprintFitsInFBits) {
  BucketArray arr(small_config());
  for (LineAddr x = 0; x < 5000; ++x) {
    EXPECT_LT(arr.fingerprint(x), 1u << 8);
  }
}

TEST(BucketArray, BucketIndicesInRange) {
  BucketArray arr(small_config());
  for (LineAddr x = 0; x < 5000; ++x) {
    EXPECT_LT(arr.bucket1(x), 16u);
    EXPECT_LT(arr.bucket2(x), 16u);
  }
}

TEST(BucketArray, AltBucketIsInvolution) {
  // Partial-key cuckoo hashing requires alt(alt(i, fp), fp) == i so a
  // relocated record can always find its way back (Section II-B).
  BucketArray arr(small_config());
  for (LineAddr x = 0; x < 5000; ++x) {
    const auto fp = arr.fingerprint(x);
    for (std::size_t bkt = 0; bkt < 16; ++bkt) {
      EXPECT_EQ(arr.alt_bucket(arr.alt_bucket(bkt, fp), fp), bkt);
    }
  }
}

TEST(BucketArray, Bucket2MatchesAltOfBucket1) {
  BucketArray arr(small_config());
  for (LineAddr x = 0; x < 5000; ++x) {
    EXPECT_EQ(arr.bucket2(x),
              arr.alt_bucket(arr.bucket1(x), arr.fingerprint(x)));
  }
}

TEST(BucketArray, FindInBucketAndVacancy) {
  BucketArray arr(small_config());
  EXPECT_EQ(arr.find_in_bucket(3, 0xAB), BucketArray::npos);
  EXPECT_EQ(arr.find_vacancy(3), 0u);
  arr.set_entry(3, 0, FilterEntry{true, 0xAB, 1});
  EXPECT_EQ(arr.find_in_bucket(3, 0xAB), 0u);
  EXPECT_EQ(arr.find_vacancy(3), 1u);
  // Invalid entries with a matching fingerprint must not match.
  arr.set_entry(5, 2, FilterEntry{false, 0xCD, 0});
  EXPECT_EQ(arr.find_in_bucket(5, 0xCD), BucketArray::npos);
}

TEST(BucketArray, OccupancyCountsValidEntries) {
  BucketArray arr(small_config());
  EXPECT_DOUBLE_EQ(arr.occupancy(), 0.0);
  EXPECT_EQ(arr.valid_count(), 0u);
  arr.set_entry(0, 0, FilterEntry{true, 0, 0});
  arr.set_entry(1, 2, FilterEntry{true, 0, 0});
  EXPECT_EQ(arr.valid_count(), 2u);
  EXPECT_DOUBLE_EQ(arr.occupancy(), 2.0 / 64.0);
  arr.clear();
  EXPECT_EQ(arr.valid_count(), 0u);
}

TEST(BucketArray, HashSeedChangesLayout) {
  FilterConfig a = small_config();
  FilterConfig b = small_config();
  b.hash_seed = a.hash_seed + 1;
  BucketArray arr_a(a), arr_b(b);
  int same = 0;
  for (LineAddr x = 0; x < 200; ++x) {
    same += (arr_a.bucket1(x) == arr_b.bucket1(x) &&
             arr_a.fingerprint(x) == arr_b.fingerprint(x));
  }
  EXPECT_LT(same, 20);
}

TEST(BucketArray, BucketDistributionRoughlyUniform) {
  BucketArray arr(small_config());
  std::vector<int> counts(16, 0);
  const int n = 16000;
  for (LineAddr x = 0; x < n; ++x) ++counts[arr.bucket1(x)];
  for (int c : counts) EXPECT_NEAR(c, n / 16, n / 16 / 3);
}

TEST(BucketArray, ForEachVisitsEveryEntry) {
  BucketArray arr(small_config());
  std::set<std::pair<std::size_t, std::size_t>> seen;
  arr.for_each([&](std::size_t bkt, std::size_t s, const FilterEntry&) {
    seen.insert({bkt, s});
  });
  EXPECT_EQ(seen.size(), 64u);
}

TEST(BucketArray, PackedFieldsRoundTrip) {
  // All-ones field values must survive the bit-packed representation
  // without bleeding into neighbouring fields.
  BucketArray arr(small_config());  // f=8, counter_bits=2
  arr.set_entry(2, 1, FilterEntry{true, 0xFF, 3});
  const FilterEntry e = arr.entry(2, 1);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.fprint, 0xFFu);
  EXPECT_EQ(e.security, 3u);
  EXPECT_EQ(arr.security(2, 1), 3u);
}

TEST(BucketArray, SetSecurityLeavesFingerprintAndValid) {
  BucketArray arr(small_config());
  arr.set_entry(4, 3, FilterEntry{true, 0x5A, 0});
  arr.set_security(4, 3, 2);
  const FilterEntry e = arr.entry(4, 3);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.fprint, 0x5Au);
  EXPECT_EQ(e.security, 2u);
}

TEST(BucketArray, SwapEntryExchangesBothDirections) {
  BucketArray arr(small_config());
  arr.set_entry(6, 0, FilterEntry{true, 0x11, 1});
  FilterEntry hand{true, 0x22, 3};
  arr.swap_entry(6, 0, hand);
  EXPECT_EQ(hand.fprint, 0x11u);
  EXPECT_EQ(hand.security, 1u);
  EXPECT_EQ(arr.entry(6, 0).fprint, 0x22u);
  EXPECT_EQ(arr.entry(6, 0).security, 3u);
  EXPECT_EQ(arr.valid_count(), 1u);  // swap of two valid entries: unchanged
}

TEST(BucketArray, ValidCountTracksOverwrites) {
  BucketArray arr(small_config());
  arr.set_entry(0, 0, FilterEntry{true, 1, 0});
  arr.set_entry(0, 0, FilterEntry{true, 2, 0});  // overwrite: still one
  EXPECT_EQ(arr.valid_count(), 1u);
  arr.clear_entry(0, 0);
  EXPECT_EQ(arr.valid_count(), 0u);
  arr.clear_entry(0, 0);  // double-clear must not underflow
  EXPECT_EQ(arr.valid_count(), 0u);
}

TEST(BucketArray, RejectsInvalidConfig) {
  FilterConfig cfg = small_config();
  cfg.l = 15;  // not a power of two
  EXPECT_THROW(BucketArray{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace pipo
