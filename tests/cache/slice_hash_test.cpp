// Unit tests for the slice-selection hash strategies (cache/slice_hash.h):
// the historical low-bits interleave, the Intel complex-addressing hash
// recovered by Maurice et al. (RAID'15), parsing, and the SlicedCache
// integration (index_shift rule, slice-count validation).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "cache/slice_hash.h"
#include "cache/sliced_cache.h"

namespace pipo {
namespace {

TEST(SliceHash, LowBitsIsTheIdentityInterleave) {
  for (LineAddr line = 0; line < 256; ++line) {
    EXPECT_EQ(slice_hash(SliceHashKind::kLowBits, line, 4), line & 3);
    EXPECT_EQ(slice_hash(SliceHashKind::kLowBits, line, 8), line & 7);
  }
}

TEST(SliceHash, IntelCasMatchesTheRecoveredMasks) {
  // Spot-check the parity definition directly: slice bit i is the
  // parity of (byte_addr & mask_i), masks from Maurice et al. Table 1.
  for (LineAddr line : {0ull, 9ull, 0x40ull, 0x12345ull, 0xfffffull}) {
    const std::uint64_t a = byte_of(line);
    std::uint32_t want = detail::parity64(a & 0x1b5f575440ull) |
                         (detail::parity64(a & 0x2eb5faa880ull) << 1) |
                         (detail::parity64(a & 0x3cccc93100ull) << 2);
    EXPECT_EQ(slice_hash(SliceHashKind::kIntelCas, line, 8), want);
    EXPECT_EQ(slice_hash(SliceHashKind::kIntelCas, line, 4), want & 3)
        << "smaller machines use a prefix of the recovered function";
    EXPECT_EQ(slice_hash(SliceHashKind::kIntelCas, line, 2), want & 1);
  }
}

TEST(SliceHash, IntelCasSpreadsSmallWorkingSets) {
  // The masks include bits down to bit 6, so even a few-KB working set
  // must not collapse onto one slice (that would make the variant
  // useless for the mini test configs).
  std::array<int, 4> hist{};
  for (LineAddr line = 0; line < 256; ++line) {
    ++hist[slice_hash(SliceHashKind::kIntelCas, line, 4)];
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(hist[s], 0) << "slice " << s << " never selected";
  }
}

TEST(SliceHash, IntelCasDiffersFromLowBits) {
  int diff = 0;
  for (LineAddr line = 0; line < 1024; ++line) {
    diff += slice_hash(SliceHashKind::kIntelCas, line, 4) !=
            slice_hash(SliceHashKind::kLowBits, line, 4);
  }
  EXPECT_GT(diff, 256) << "the CAS hash barely differs from low-bits";
}

TEST(SliceHash, SingleSliceAlwaysRoutesToZero) {
  for (LineAddr line = 0; line < 64; ++line) {
    EXPECT_EQ(slice_hash(SliceHashKind::kIntelCas, line, 1), 0u);
  }
}

TEST(SliceHash, IntelCasRejectsMoreThanEightSlices) {
  EXPECT_THROW(slice_hash(SliceHashKind::kIntelCas, 0, 16),
               std::invalid_argument);
}

TEST(SliceHash, ParseAcceptsBothSpellings) {
  EXPECT_EQ(parse_slice_hash("low"), SliceHashKind::kLowBits);
  EXPECT_EQ(parse_slice_hash("low-bits"), SliceHashKind::kLowBits);
  EXPECT_EQ(parse_slice_hash("cas"), SliceHashKind::kIntelCas);
  EXPECT_EQ(parse_slice_hash("intel-cas"), SliceHashKind::kIntelCas);
  EXPECT_EQ(parse_slice_hash("garbage"), std::nullopt);
  EXPECT_STREQ(to_string(SliceHashKind::kLowBits), "low-bits");
  EXPECT_STREQ(to_string(SliceHashKind::kIntelCas), "intel-cas");
}

TEST(SliceHash, SlicedCacheRoutesThroughTheConfiguredHash) {
  CacheConfig total;
  total.size_bytes = 32 * 1024;
  total.ways = 8;
  SlicedCache low(total, 4, SliceHashKind::kLowBits);
  SlicedCache cas(total, 4, SliceHashKind::kIntelCas);
  EXPECT_EQ(low.hash_kind(), SliceHashKind::kLowBits);
  EXPECT_EQ(cas.hash_kind(), SliceHashKind::kIntelCas);
  for (LineAddr line = 0; line < 512; ++line) {
    EXPECT_EQ(low.slice_of(line), line & 3);
    EXPECT_EQ(cas.slice_of(line),
              slice_hash(SliceHashKind::kIntelCas, line, 4));
  }
}

TEST(SliceHash, CasSlicesKeepFullSetIndexRange) {
  // Under low-bits the slice bits are removed from the set index
  // (index_shift = log2(slices)); under CAS the slice index is not an
  // address substring, so the full low address must index the sets or
  // congruent-mod-slice-count lines would alias into one set.
  CacheConfig total;
  total.size_bytes = 32 * 1024;
  total.ways = 8;
  SlicedCache cas(total, 4, SliceHashKind::kIntelCas);
  // Consecutive lines routed to the same slice must spread over sets.
  EXPECT_EQ(cas.slice(0).index_shift(), 0u)
      << "CAS slices must index sets from the full low address";
  std::uint32_t slice0_sets_hit = 0;
  std::array<bool, 64> seen{};
  for (LineAddr line = 0; line < 256; ++line) {
    if (cas.slice_of(line) != 0) continue;
    const std::size_t set = cas.slice(0).set_of(line);
    if (!seen[set]) {
      seen[set] = true;
      ++slice0_sets_hit;
    }
  }
  EXPECT_GT(slice0_sets_hit, 1u)
      << "CAS-routed lines collapsed onto a single set";
}

TEST(SliceHash, SlicedCacheRejectsCasWithTooManySlices) {
  CacheConfig total;
  total.size_bytes = 64 * 1024;
  total.ways = 8;
  EXPECT_NO_THROW(SlicedCache(total, 16, SliceHashKind::kLowBits));
  EXPECT_THROW(SlicedCache(total, 16, SliceHashKind::kIntelCas),
               std::invalid_argument);
}

}  // namespace
}  // namespace pipo
