// Property-style parameterized sweeps over filter geometries (TEST_P):
// the paper-level invariants must hold for every (l, b, f, MNK)
// configuration, not just the Table II point.
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/audit.h"
#include "filter/auto_cuckoo_filter.h"
#include "filter/cuckoo_filter.h"

namespace pipo {
namespace {

using GeometryParam = std::tuple<std::uint32_t /*l*/, std::uint32_t /*b*/,
                                 std::uint32_t /*f*/, std::uint32_t /*mnk*/>;

class FilterGeometry : public ::testing::TestWithParam<GeometryParam> {
 protected:
  FilterConfig config() const {
    const auto [l, b, f, mnk] = GetParam();
    FilterConfig cfg;
    cfg.l = l;
    cfg.b = b;
    cfg.f = f;
    cfg.mnk = mnk;
    return cfg;
  }
};

TEST_P(FilterGeometry, InsertionNeverFailsAndStaysWithinCapacity) {
  const FilterConfig cfg = config();
  AutoCuckooFilter f(cfg);
  Rng rng(0xF00 + cfg.l + cfg.mnk);
  const int n = static_cast<int>(cfg.entries() * 8);
  for (int i = 0; i < n; ++i) {
    const LineAddr x = rng.below(1ull << 40);
    const std::uint64_t drops_before = f.autonomic_deletions();
    f.access(x);
    // Either the record is resident or the chain ended in exactly one
    // autonomic deletion — an insert is never refused outright.
    ASSERT_TRUE(f.contains(x) ||
                f.autonomic_deletions() == drops_before + 1);
    ASSERT_LE(f.size(), cfg.entries());
  }
}

TEST_P(FilterGeometry, OccupancySaturatesRegardlessOfMnk) {
  // Fig 3's headline: occupancy is not sensitive to MNK and reaches 100%
  // after enough insertions (~12.5K for 8K entries, i.e. ~1.6x capacity;
  // we allow 8x for tiny geometries).
  const FilterConfig cfg = config();
  AutoCuckooFilter f(cfg);
  Rng rng(0xBA5E + cfg.b);
  const int n = static_cast<int>(cfg.entries() * 8);
  for (int i = 0; i < n; ++i) f.access(rng.below(1ull << 40));
  EXPECT_GE(f.occupancy(), 0.98);
}

TEST_P(FilterGeometry, AuditAgreesWithFilterEverywhere) {
  const FilterConfig cfg = config();
  FilterAudit audit(cfg);
  AutoCuckooFilter f(cfg, &audit);
  Rng rng(0xCAFE + cfg.f);
  const int n = static_cast<int>(cfg.entries() * 4);
  for (int i = 0; i < n; ++i) f.access(rng.below(1ull << 40));
  std::uint64_t audited = 0;
  for (const auto& [k, v] : audit.collision_histogram()) audited += v;
  EXPECT_EQ(audited, f.size());
  EXPECT_EQ(audit.drops(), f.autonomic_deletions());
}

TEST_P(FilterGeometry, StorageFormulaMatchesGeometry) {
  const FilterConfig cfg = config();
  EXPECT_EQ(cfg.storage_bits(),
            static_cast<std::uint64_t>(cfg.l) * cfg.b *
                (1 + cfg.f + cfg.counter_bits));
}

TEST_P(FilterGeometry, ClassicFilterNoFalseNegatives) {
  const FilterConfig cfg = config();
  CuckooFilter f(cfg);
  Rng rng(0xD00D + cfg.l);
  std::vector<LineAddr> ok;
  const int n = static_cast<int>(cfg.entries());
  for (int i = 0; i < n; ++i) {
    const LineAddr x = rng.below(1ull << 40);
    if (f.insert(x)) ok.push_back(x);
  }
  for (LineAddr x : ok) EXPECT_TRUE(f.contains(x));
}

TEST_P(FilterGeometry, ResidentAddressesAreAlwaysVisible) {
  // No false negatives: any address the ground truth says is resident
  // must be reported by contains(), through arbitrary relocation churn.
  const FilterConfig cfg = config();
  FilterAudit audit(cfg);
  AutoCuckooFilter f(cfg, &audit);
  Rng rng(0xA11CE + cfg.l * 7 + cfg.mnk);
  std::vector<LineAddr> inserted;
  const int n = static_cast<int>(cfg.entries() * 4);
  for (int i = 0; i < n; ++i) {
    const LineAddr x = rng.below(1ull << 40);
    f.access(x);
    inserted.push_back(x);
  }
  int resident = 0;
  for (LineAddr x : inserted) {
    if (!audit.resident(x)) continue;
    ++resident;
    EXPECT_TRUE(f.contains(x)) << std::hex << x;
  }
  EXPECT_GT(resident, 0);
}

TEST_P(FilterGeometry, RelocationPreservesSecurityCounters) {
  // fPrint Array and Data Array move in lockstep (Section V-C): a
  // record's Security value survives any number of relocations. Saturate
  // a set of targets, churn the filter hard, then verify every target
  // that is still resident reports a saturated counter.
  const FilterConfig cfg = config();
  FilterAudit audit(cfg);
  AutoCuckooFilter f(cfg, &audit);
  Rng rng(0x5EC + cfg.b + cfg.f);
  std::vector<LineAddr> targets;
  for (std::uint32_t i = 0; i < cfg.l; ++i) {
    const LineAddr x = rng.below(1ull << 40);
    bool fresh = !f.access(x).existed;
    for (std::uint32_t k = 0; k < cfg.counter_max(); ++k) f.access(x);
    if (fresh) targets.push_back(x);
  }
  // Churn scaled so that some targets survive even in tiny filters
  // (survival probability per fill ~ 1 - 1/entries).
  for (int i = 0; i < static_cast<int>(cfg.entries()); ++i) {
    f.access(rng.below(1ull << 40));  // relocation churn
  }
  int checked = 0;
  for (LineAddr x : targets) {
    if (!audit.resident(x)) continue;  // autonomically deleted: fine
    const auto sec = f.security_of(x);
    ASSERT_TRUE(sec.has_value()) << std::hex << x;
    EXPECT_GE(*sec, cfg.counter_max()) << std::hex << x;
    ++checked;
  }
  if (cfg.entries() >= 64) {
    EXPECT_GT(checked, 0) << "churn evicted every target: weaken the test";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FilterGeometry,
    ::testing::Values(
        GeometryParam{16, 2, 8, 0}, GeometryParam{16, 4, 8, 2},
        GeometryParam{64, 4, 10, 1}, GeometryParam{64, 8, 12, 4},
        GeometryParam{128, 2, 12, 4}, GeometryParam{256, 4, 12, 2},
        GeometryParam{256, 8, 14, 8}, GeometryParam{512, 8, 12, 4},
        GeometryParam{1024, 8, 12, 4}),
    [](const ::testing::TestParamInfo<GeometryParam>& info) {
      // Appends rather than operator+ chains: gcc 12's -Wrestrict trips
      // a known false positive on the temporary-concatenation pattern.
      std::string name = "l";
      name += std::to_string(std::get<0>(info.param));
      name += 'b';
      name += std::to_string(std::get<1>(info.param));
      name += 'f';
      name += std::to_string(std::get<2>(info.param));
      name += "mnk";
      name += std::to_string(std::get<3>(info.param));
      return name;
    });

// --- false-positive-rate sweep over fingerprint width (Section V-B) ---

class FingerprintWidth : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FingerprintWidth, MeasuredCollisionRateTracksEquation) {
  FilterConfig cfg;
  cfg.l = 256;
  cfg.b = 8;
  cfg.f = GetParam();
  cfg.mnk = 4;
  FilterAudit audit(cfg);
  AutoCuckooFilter f(cfg, &audit);
  Rng rng(0x1DEA + cfg.f);
  for (std::uint64_t i = 0; i < cfg.entries() * 16; ++i) {
    f.access(rng.below(1ull << 40));
  }
  const double ratio = audit.collision_entry_ratio();
  // Expected per-entry collision probability is of order
  // eps = 2b/2^f per lookup; across a full filter the entry-collision
  // ratio lands in the same decade (Fig 4). Allow wide bounds: this is a
  // trend check, not a point estimate.
  const double eps = cfg.false_positive_rate_approx();
  EXPECT_LT(ratio, eps * 40.0);
  if (cfg.f <= 10) {
    EXPECT_GT(ratio, eps * 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(WidthSweep, FingerprintWidth,
                         ::testing::Values(8u, 10u, 12u, 14u, 16u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           std::string name = "f";
                           name += std::to_string(i.param);
                           return name;
                         });

// --- secThr sweep: capture happens exactly at the threshold ---

class SecThr : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SecThr, CaptureAtExactlyThreshold) {
  FilterConfig cfg;
  cfg.l = 64;
  cfg.b = 4;
  cfg.f = 12;
  cfg.sec_thr = GetParam();
  AutoCuckooFilter f(cfg);
  f.access(0xABCD);  // insert, Security 0
  for (std::uint32_t i = 1; i < cfg.sec_thr; ++i) {
    EXPECT_FALSE(f.access(0xABCD).ping_pong) << "premature capture at " << i;
  }
  EXPECT_TRUE(f.access(0xABCD).ping_pong);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SecThr, ::testing::Values(1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "secThr" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace pipo
