#include "cache/cache_config.h"

#include <gtest/gtest.h>

namespace pipo {
namespace {

TEST(CacheConfig, TableIIPresets) {
  EXPECT_EQ(CacheConfig::l1d().size_bytes, 64u * 1024);
  EXPECT_EQ(CacheConfig::l1d().ways, 4u);
  EXPECT_EQ(CacheConfig::l1d().latency, 2u);
  EXPECT_EQ(CacheConfig::l2().size_bytes, 256u * 1024);
  EXPECT_EQ(CacheConfig::l2().ways, 8u);
  EXPECT_EQ(CacheConfig::l2().latency, 18u);
  EXPECT_EQ(CacheConfig::l3().size_bytes, 4u * 1024 * 1024);
  EXPECT_EQ(CacheConfig::l3().ways, 16u);
  EXPECT_EQ(CacheConfig::l3().latency, 35u);
}

TEST(CacheConfig, GeometryDerivation) {
  const CacheConfig l1 = CacheConfig::l1d();
  EXPECT_EQ(l1.num_lines(), 1024u);
  EXPECT_EQ(l1.num_sets(), 256u);
  const CacheConfig l3 = CacheConfig::l3();
  EXPECT_EQ(l3.num_lines(), 65536u);
  EXPECT_EQ(l3.num_sets(), 4096u);
}

TEST(CacheConfig, ValidatePassesOnPresets) {
  EXPECT_NO_THROW(CacheConfig::l1i().validate());
  EXPECT_NO_THROW(CacheConfig::l2().validate());
  EXPECT_NO_THROW(CacheConfig::l3().validate());
}

TEST(CacheConfig, ValidateRejectsNonLineMultipleSize) {
  CacheConfig c = CacheConfig::l1d();
  c.size_bytes = 100;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(CacheConfig, ValidateRejectsNonPow2Sets) {
  CacheConfig c = CacheConfig::l1d();
  c.ways = 3;  // 1024 lines / 3 does not divide
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.size_bytes = 3 * 64 * 64;  // 192 lines, 3 ways -> 64 sets: fine
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
}  // namespace pipo
