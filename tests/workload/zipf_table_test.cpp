// Unit tests for workload/zipf_table.h. The rank-equality proof against
// a binary search lives in tests/oracle/zipf_table_oracle_test.cpp.
#include "workload/zipf_table.h"

#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

namespace pipo {
namespace {

// The 32-bit guide cannot name ranks past 2^32 - 1, and an empty table
// has no rank to return; both are refused before anything is allocated.
TEST(ZipfTable, RejectsRankCountsOutsideTheGuideRange) {
  EXPECT_THROW(ZipfTable(0, 0.8), std::invalid_argument);
  EXPECT_THROW(ZipfTable(std::uint64_t{1} << 32, 0.8), std::invalid_argument);
}

}  // namespace
}  // namespace pipo
