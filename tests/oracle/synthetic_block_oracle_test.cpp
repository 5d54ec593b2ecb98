// Differential oracle for the synthetic generator's block draws
// (SyntheticWorkload, src/workload/synthetic.h; the argument is in that
// header's comment).
//
// The reference is oracle::ReferenceSyntheticWorkload
// (reference_synthetic.h): one Rng call per draw, the pre_delay gap as a
// loop of Bernoulli trials, every probability tested on doubles. Both
// generators run side by side from the same (profile, base, budget,
// seed) and must yield equal (addr, type, pre_delay, bypass_private)
// streams, then equal generated_instructions() and
// warm_bursts_started().
//
// Scenarios: all 13 SPEC profiles at ws_div 1, 4 and 16 with three seeds
// each, and edge profiles (mean_gap 0, mean_gap 200 where the 64-draw
// cap binds on most gaps, store_ratio 0 and 1, frac_hot 1, a one-line
// working set, a burst due every 50 accesses). Anti-vacuity: the runs
// see gaps that hit the cap and gaps whose draws straddle a block refill
// (counted on the reference's own Rng), and conflict bursts, whose warm
// accesses take no draw.
//
// chance_threshold (common/rng.h) is tested at its boundary directly:
// random streams land on X = t - 1, t or t + 1 with probability ~2^-52,
// so they cannot catch an off-by-one there.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/oracle/reference_synthetic.h"
#include "workload/profile.h"
#include "workload/synthetic.h"

namespace pipo {
namespace {

// The production generator takes draws 64 at a time, from draw 0 of its
// Rng; the gap cap is also 64.
constexpr std::uint64_t kBlockDraws = 64;
constexpr std::uint32_t kMaxGap = 64;

/// How many draws a generator has taken from its Rng: a twin with the
/// same seed steps forward until its next draw is the generator's next.
class DrawCounter {
 public:
  explicit DrawCounter(std::uint64_t seed) : twin_(seed), next_(twin_.next()) {}

  std::uint64_t taken(const Rng& rng) {
    Rng peek = rng;
    const std::uint64_t want = peek.next();
    while (next_ != want) {
      next_ = twin_.next();
      ++taken_;
    }
    return taken_;
  }

 private:
  Rng twin_;
  std::uint64_t next_;
  std::uint64_t taken_ = 0;
};

struct Coverage {
  std::uint64_t requests = 0;
  std::uint64_t capped_gaps = 0;      ///< pre_delay == 64: 64 draws, no stop
  std::uint64_t straddling_gaps = 0;  ///< draws in two blocks
  std::uint64_t bursts = 0;
};

/// Runs both generators to the end of the budget and compares them.
void expect_same_stream(const BenchmarkProfile& profile, std::uint64_t budget,
                        std::uint64_t seed, const std::string& label,
                        Coverage& cov) {
  const Addr base = SyntheticWorkload::disjoint_base(1);
  oracle::ReferenceSyntheticWorkload ref(profile, base, budget, seed);
  SyntheticWorkload prod(profile, base, budget, seed);
  DrawCounter counter(seed);
  for (std::uint64_t i = 0;; ++i) {
    const std::uint64_t gap_start = counter.taken(ref.rng());
    const auto want = ref.next(0);
    const auto got = prod.next(0);
    ASSERT_EQ(got.has_value(), want.has_value()) << label << " req " << i;
    if (!want) break;
    ASSERT_EQ(got->addr, want->addr) << label << " req " << i;
    ASSERT_EQ(got->type, want->type) << label << " req " << i;
    ASSERT_EQ(got->pre_delay, want->pre_delay) << label << " req " << i;
    ASSERT_EQ(got->bypass_private, want->bypass_private)
        << label << " req " << i;
    ++cov.requests;
    // A gap of g < 64 took g + 1 draws (the last one stopped it); a
    // capped gap took 64.
    const std::uint64_t gap_draws =
        want->pre_delay == kMaxGap ? kMaxGap : want->pre_delay + 1u;
    if (want->pre_delay == kMaxGap) ++cov.capped_gaps;
    if (gap_start / kBlockDraws != (gap_start + gap_draws - 1) / kBlockDraws) {
      ++cov.straddling_gaps;
    }
  }
  EXPECT_EQ(prod.generated_instructions(), ref.generated_instructions())
      << label;
  EXPECT_EQ(prod.warm_bursts_started(), ref.warm_bursts_started()) << label;
  cov.bursts += ref.warm_bursts_started();
}

TEST(SyntheticBlockOracle, SpecProfilesMatchTheReference) {
  Coverage cov;
  for (const std::string& name : spec_benchmarks()) {
    for (std::uint64_t ws_div : {1, 4, 16}) {
      for (std::uint64_t seed : {1ull, 42ull, 0x9E3779B97F4A7C15ull}) {
        const std::string label = name + " ws/" + std::to_string(ws_div) +
                                  " seed " + std::to_string(seed);
        expect_same_stream(spec_profile(name, ws_div), 200'000, seed, label,
                           cov);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(cov.requests, 13u * 9u * 10'000u);
  EXPECT_GT(cov.straddling_gaps, 1000u);
}

BenchmarkProfile edge_base(const std::string& name) {
  BenchmarkProfile p;
  p.name = name;
  p.working_set_bytes = 4 << 20;
  p.hot_bytes = 64 << 10;
  p.frac_hot = 0.3;
  p.frac_stream = 0.4;
  p.frac_random = 0.3;
  p.store_ratio = 0.3;
  p.mean_gap = 3;
  return p;
}

TEST(SyntheticBlockOracle, EdgeProfilesMatchTheReference) {
  std::vector<BenchmarkProfile> edges;
  {
    BenchmarkProfile p = edge_base("mean_gap 0");  // every draw stops
    p.mean_gap = 0;
    edges.push_back(p);
  }
  {
    BenchmarkProfile p = edge_base("mean_gap 200");  // the cap binds
    p.mean_gap = 200;
    edges.push_back(p);
  }
  {
    BenchmarkProfile p = edge_base("store_ratio 0");
    p.store_ratio = 0.0;
    edges.push_back(p);
  }
  {
    BenchmarkProfile p = edge_base("store_ratio 1");
    p.store_ratio = 1.0;
    edges.push_back(p);
  }
  {
    BenchmarkProfile p = edge_base("frac_hot 1");
    p.frac_hot = 1.0;
    p.frac_stream = 0.0;
    p.frac_random = 0.0;
    edges.push_back(p);
  }
  {
    BenchmarkProfile p = edge_base("one-line working set");
    p.working_set_bytes = kLineSizeBytes;
    p.hot_bytes = kLineSizeBytes;
    edges.push_back(p);
  }
  {
    BenchmarkProfile p = edge_base("bursts every 50 accesses");
    p.warm_bytes = 256 << 10;
    p.warm_burst_every = 50;
    edges.push_back(p);
  }
  Coverage cov;
  Coverage mean_gap_200;
  for (const BenchmarkProfile& p : edges) {
    for (std::uint64_t seed : {3, 77}) {
      Coverage& c = p.mean_gap == 200 ? mean_gap_200 : cov;
      expect_same_stream(p, 200'000, seed,
                         p.name + " seed " + std::to_string(seed), c);
      if (HasFatalFailure()) return;
    }
  }
  // At P(stop) = 1/201 a gap reaches the cap with probability
  // (200/201)^64, about 73%.
  EXPECT_GT(mean_gap_200.capped_gaps * 2, mean_gap_200.requests);
  EXPECT_GT(mean_gap_200.straddling_gaps, 100u);
  EXPECT_GT(cov.straddling_gaps, 1000u);
  // A burst is 8 laps of 24 warm accesses with 600 others between laps,
  // so about 5,000 accesses; the SPEC profiles' bursts are rarer than
  // the runs above are long.
  EXPECT_GE(cov.bursts, 10u);
}

// For X = x >> 11 of a raw draw x, Rng::chance(p) is X * 2^-53 < p, and
// the block generator tests chance_hit(x, chance_threshold(p)), which is
// X < t, instead. Check the two agree on both sides of the threshold for
// every probability a profile feeds them, and at the extremes.
TEST(SyntheticBlockOracle, ChanceThresholdIsExactAtItsBoundary) {
  std::vector<double> ps = {0.0, 1.0, std::nextafter(1.0, 0.0),
                            std::numeric_limits<double>::denorm_min(),
                            1.0 / 201.0};
  for (const std::string& name : spec_benchmarks()) {
    BenchmarkProfile p = spec_profile(name);
    p.normalize();  // as SyntheticWorkload's constructor does
    ps.push_back(p.frac_hot);
    ps.push_back(p.frac_hot + p.frac_stream);
    ps.push_back(p.store_ratio);
    ps.push_back(1.0 / (p.mean_gap + 1.0));
  }
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;  // X < 2^53
  for (const double p : ps) {
    const std::uint64_t t = chance_threshold(p);
    ASSERT_LE(t, kDraws) << "p " << p;
    for (const std::uint64_t x : {t - 1, t, t + 1}) {
      if (x > kDraws) continue;  // t - 1 wraps when t == 0
      const bool as_double = std::ldexp(static_cast<double>(x), -53) < p;
      EXPECT_EQ(x < t, as_double) << "p " << p << " X " << x << " t " << t;
      if (x < kDraws) {
        // The raw draws with this X, the 11 discarded bits clear or set,
        // through the generator's compare and through Rng::unit.
        for (const std::uint64_t low : {0x000ull, 0x7FFull}) {
          const std::uint64_t draw = (x << 11) | low;
          EXPECT_EQ(chance_hit(draw, t), as_double)
              << "p " << p << " X " << x;
          EXPECT_EQ(Rng::unit(draw) < p, as_double) << "p " << p << " X " << x;
        }
      }
    }
  }
  EXPECT_EQ(chance_threshold(0.0), 0u);
  EXPECT_EQ(chance_threshold(-0.5), 0u);
  EXPECT_EQ(chance_threshold(std::nan("")), 0u);
  EXPECT_EQ(chance_threshold(1.0), kDraws);
  EXPECT_EQ(chance_threshold(std::numeric_limits<double>::denorm_min()), 1u);
}

}  // namespace
}  // namespace pipo
