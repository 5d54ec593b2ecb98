#include "cache/cache_array.h"

#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/sliced_cache.h"
#include "common/rng.h"

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
  EXPECT_TRUE(c.occupied(*slot));
  EXPECT_EQ(c.tag(*slot), 0x10u);
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

/// Returns a fixed way and counts how often it is asked.
class CountingChooser final : public VictimChooser {
 public:
  explicit CountingChooser(std::uint32_t way) : way_(way) {}
  std::optional<std::uint32_t> choose(const CacheWay*,
                                      std::uint32_t) override {
    ++calls;
    return way_;
  }
  int calls = 0;

 private:
  std::uint32_t way_;
};

TEST(CacheArray, ChooserIsAskedOnlyWhenTheSetIsFull) {
  CacheArray c(tiny_cache());
  CountingChooser chooser(0);
  c.fill(0x00, &chooser);  // set 0, way 0
  c.fill(0x04, &chooser);  // set 0, way 1: the set is full
  c.invalidate(0x00);
  const auto refill = c.fill(0x0C, &chooser);  // the freed way 0
  EXPECT_FALSE(refill.evicted.has_value());
  EXPECT_EQ(refill.slot.way, 0u);
  c.fill(0x01, &chooser);  // set 1 is empty
  EXPECT_EQ(chooser.calls, 0);

  // Set 0 is full, and LRU would evict 0x04 from way 1.
  const auto r = c.fill(0x08, &chooser);
  EXPECT_EQ(chooser.calls, 1);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(r.evicted->line, 0x0Cu);
  EXPECT_EQ(r.slot.way, 0u);
  EXPECT_EQ(c.tag(r.slot), 0x08u);
  EXPECT_TRUE(c.lookup(0x04).has_value());
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
  EXPECT_EQ(c.tag(*s0), 0x00u);
  EXPECT_EQ(c.tag(*s1), 0x100u);
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

TEST(CacheArray, FingerprintTwinsCompareFullTags) {
  // An LLC-slice-shaped array: 64 sets x 16 ways, index_shift 2.
  CacheArray c(CacheConfig{"slice", 64 * 16 * kLineSizeBytes, 16, 1},
               /*index_shift=*/2);
  const std::size_t set = 5;
  // Search set 5 for three lines with one fingerprint. They differ in
  // their tags, and in the low bits the index skips.
  std::vector<std::vector<LineAddr>> by_fp(256);
  std::vector<LineAddr> twins;
  for (std::uint64_t t = 0; twins.empty(); ++t) {
    const LineAddr line = ((t * c.num_sets() + set) << 2) | (t & 3);
    ASSERT_EQ(c.set_of(line), set);
    std::vector<LineAddr>& same = by_fp[CacheArray::fingerprint(line)];
    same.push_back(line);
    if (same.size() == 3) twins = same;
  }
  const LineAddr a = twins[0], b = twins[1], absent = twins[2];

  const CacheProbe pa = c.probe(a);
  ASSERT_FALSE(pa.hit);
  const CacheSlot sa = c.fill(a, pa).slot;
  // a's fingerprint matches b's, but its tag does not.
  const CacheProbe pb = c.probe(b);
  ASSERT_FALSE(pb.hit);
  const CacheSlot sb = c.fill(b, pb).slot;
  ASSERT_NE(sa.way, sb.way);
  const std::optional<CacheSlot> fa = c.lookup(a);
  const std::optional<CacheSlot> fb = c.lookup(b);
  ASSERT_TRUE(fa && fb);
  EXPECT_EQ(fa->way, sa.way);
  EXPECT_EQ(fb->way, sb.way);
  EXPECT_FALSE(c.lookup(absent).has_value());

  // Removing one twin leaves the other found at its own way.
  c.invalidate(sa);
  EXPECT_FALSE(c.lookup(a).has_value());
  const std::optional<CacheSlot> fb2 = c.lookup(b);
  ASSERT_TRUE(fb2.has_value());
  EXPECT_EQ(fb2->way, sb.way);
}

// ---------------------------------------------------------------------
// The tag row and occupancy word are the only record of which line a way
// holds, and probe() finds a line only through its fingerprint word.
// Random traffic against a plain per-way model checks every slot, and
// every resident line's lookup, after every operation.

struct PlacementCase {
  const char* name;
  std::uint64_t sets;
  std::uint32_t ways;
  unsigned index_shift;
  /// Percent of operations that clear the array. A 64-way set needs
  /// runs of some 200 operations between clears to fill up.
  std::uint64_t clear_pct;
};

// Without it, gtest prints the struct's bytes, `name`'s address among
// them, into every listed test name.
void PrintTo(const PlacementCase& pc, std::ostream* os) { *os << pc.name; }

/// What one way holds, kept by hand: free ways first (lowest index),
/// then the least recently filled or touched way.
struct ModelWay {
  bool occupied = false;
  LineAddr line = 0;
  std::uint64_t used = 0;  ///< recency stamp of the last fill or touch
};

class CacheArrayPlacement : public ::testing::TestWithParam<PlacementCase> {};

TEST_P(CacheArrayPlacement, MatchesAModelOfTheWays) {
  const PlacementCase pc = GetParam();
  CacheArray c(CacheConfig{pc.name, pc.sets * pc.ways * kLineSizeBytes,
                           pc.ways, 1},
               pc.index_shift);
  ASSERT_EQ(c.num_sets(), pc.sets);
  std::vector<ModelWay> model(pc.sets * pc.ways);
  auto way_of = [&](std::size_t set, std::uint32_t w) -> ModelWay& {
    return model[set * pc.ways + w];
  };
  auto find = [&](std::size_t set, LineAddr line) -> ModelWay* {
    for (std::uint32_t w = 0; w < pc.ways; ++w) {
      ModelWay& m = way_of(set, w);
      if (m.occupied && m.line == line) return &m;
    }
    return nullptr;
  };

  Rng rng(19);
  std::uint64_t clock = 0;
  std::uint64_t evictions = 0, invalidated = 0, clears = 0;
  for (int op = 0; op < 4000; ++op) {
    // Three quarters of the traffic goes to one set, so even 16-way sets
    // fill up between clears. Each set draws from twice its ways in
    // tags, and the low index_shift bits vary with the tag, so lines
    // that share a set differ in the bits the index skips.
    const std::size_t set =
        rng.chance(0.75) ? pc.sets - 1 : rng.below(pc.sets);
    const std::uint64_t t = rng.below(2 * pc.ways);
    const LineAddr line = ((t * pc.sets + set) << pc.index_shift) |
                          (t & ((std::uint64_t{1} << pc.index_shift) - 1));
    ASSERT_EQ(c.set_of(line), set);
    const std::uint64_t kind = rng.below(100);
    if (kind < 60) {
      const CacheProbe p = c.probe(line);
      ModelWay* hit = find(set, line);
      ASSERT_EQ(p.hit, hit != nullptr) << "op " << op;
      if (p.hit) {
        c.touch(p.slot());
        hit->used = ++clock;
      } else {
        std::uint32_t want = 0;
        while (want < pc.ways && way_of(set, want).occupied) ++want;
        const bool full = want == pc.ways;
        if (full) {
          want = 0;
          for (std::uint32_t w = 1; w < pc.ways; ++w) {
            if (way_of(set, w).used < way_of(set, want).used) want = w;
          }
        }
        const CacheArray::FillResult r = c.fill(line, p);
        ModelWay& m = way_of(set, want);
        ASSERT_EQ(r.slot.set, set);
        ASSERT_EQ(r.slot.way, want) << "op " << op;
        ASSERT_EQ(r.evicted.has_value(), full) << "op " << op;
        if (full) {
          EXPECT_EQ(r.evicted->line, m.line) << "op " << op;
          ++evictions;
        }
        m = ModelWay{true, line, ++clock};
      }
    } else if (kind < 100 - pc.clear_pct) {
      const std::optional<EvictedLine> e = c.invalidate(line);
      ModelWay* m = find(set, line);
      ASSERT_EQ(e.has_value(), m != nullptr) << "op " << op;
      if (m) {
        EXPECT_EQ(e->line, line);
        m->occupied = false;
        ++invalidated;
      }
    } else {
      c.clear();
      for (ModelWay& m : model) m.occupied = false;
      ++clears;
    }

    std::uint64_t total = 0;
    for (std::size_t s = 0; s < pc.sets; ++s) {
      std::uint32_t in_set = 0;
      for (std::uint32_t w = 0; w < pc.ways; ++w) {
        const CacheSlot slot{s, w};
        const ModelWay& m = way_of(s, w);
        ASSERT_EQ(c.occupied(slot), m.occupied)
            << "op " << op << " set " << s << " way " << w;
        if (!m.occupied) continue;
        ++in_set;
        ASSERT_EQ(c.tag(slot), m.line)
            << "op " << op << " set " << s << " way " << w;
        const std::optional<CacheSlot> found = c.lookup(m.line);
        ASSERT_TRUE(found.has_value()) << "op " << op;
        ASSERT_EQ(found->set, s);
        ASSERT_EQ(found->way, w);
      }
      ASSERT_EQ(c.valid_in_set(s), in_set) << "op " << op << " set " << s;
      total += in_set;
    }
    ASSERT_EQ(c.valid_count(), total) << "op " << op;
  }
  // Anti-vacuity: the traffic evicted, invalidated and cleared.
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(invalidated, 0u);
  EXPECT_GT(clears, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayPlacement,
    // Sets8Ways12 leaves half its second fingerprint word as padding;
    // Sets2Ways64 is the 64-way cap, eight fingerprint words per set.
    ::testing::Values(PlacementCase{"Sets4Ways2", 4, 2, 0, 3},
                      PlacementCase{"LlcSlice64x16", 64, 16, 2, 3},
                      PlacementCase{"Sets8Ways12", 8, 12, 0, 3},
                      PlacementCase{"Sets2Ways64", 2, 64, 0, 1}),
    [](const ::testing::TestParamInfo<PlacementCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pipo
