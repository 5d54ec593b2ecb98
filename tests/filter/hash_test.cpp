#include "filter/hash.h"

#include <map>

#include <gtest/gtest.h>

namespace pipo {
namespace {

TEST(MixHash, DeterministicPerSeed) {
  MixHash h(123);
  EXPECT_EQ(h(42), h(42));
  MixHash h2(123);
  EXPECT_EQ(h(42), h2(42));
}

TEST(MixHash, SeedChangesOutput) {
  MixHash a(1), b(2);
  int same = 0;
  for (std::uint64_t x = 0; x < 100; ++x) same += (a(x) == b(x));
  EXPECT_LE(same, 1);
}

TEST(MixHash, AvalancheSingleBitFlip) {
  MixHash h(77);
  // Flipping one input bit should flip ~32 of 64 output bits on average.
  double total = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = 0x1234ull * (i + 1);
    const std::uint64_t d = h(x) ^ h(x ^ (1ull << (i % 64)));
    total += __builtin_popcountll(d);
  }
  EXPECT_NEAR(total / n, 32.0, 3.0);
}

TEST(MixHash, LowBitsWellDistributed) {
  MixHash h(5);
  std::map<std::uint64_t, int> buckets;
  const int n = 64000;
  for (int i = 0; i < n; ++i) ++buckets[h(i) & 0x3F];
  ASSERT_EQ(buckets.size(), 64u);
  for (const auto& [_, c] : buckets) EXPECT_NEAR(c, n / 64, n / 64 / 3);
}

}  // namespace
}  // namespace pipo
