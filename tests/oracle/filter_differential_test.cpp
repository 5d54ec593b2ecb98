// Differential oracle for both filters: each production filter
// (bit-packed BucketArray words, the insert both filters share) versus
// its reference (unpacked entries, three independent MixHash passes,
// its own relocation chain) driven through identical randomized traces.
//
// Each pair consumes the same seeded RNG sequence for victim-slot and
// bucket choices, so every relocation chain, autonomic deletion and
// stash fill happens in lockstep; any divergence in hashing, packing,
// counter saturation, kick order or stash handling shows up as a
// mismatched result at a precise step.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/auto_cuckoo_filter.h"
#include "filter/cuckoo_filter.h"
#include "tests/oracle/reference_filter.h"

namespace pipo {
namespace {

using oracle::ReferenceAutoCuckooFilter;
using oracle::ReferenceCuckooFilter;

struct TraceShape {
  FilterConfig cfg;
  std::uint64_t universe;  ///< addresses drawn from [0, universe)
  int accesses;
};

/// Configurations spanning fingerprint widths, kick budgets and counter
/// geometries; universes sized a few times the filter capacity so hits,
/// kicks and autonomic deletions all occur.
std::vector<TraceShape> shapes() {
  std::vector<TraceShape> v;
  {
    FilterConfig c;  // paper default geometry, downscaled
    c.l = 64;
    c.b = 4;
    c.f = 8;
    v.push_back({c, 64 * 4 * 3, 1500});
  }
  {
    FilterConfig c;  // paper default f=12, MNK=4
    c.l = 128;
    c.b = 8;
    v.push_back({c, 128 * 8 * 2, 2000});
  }
  {
    FilterConfig c;  // MNK=0: every overflow is an immediate drop (Fig 7)
    c.l = 32;
    c.b = 2;
    c.f = 6;
    c.mnk = 0;
    v.push_back({c, 32 * 2 * 4, 1200});
  }
  {
    FilterConfig c;  // wide counters, high threshold
    c.l = 64;
    c.b = 4;
    c.f = 10;
    c.counter_bits = 4;
    c.sec_thr = 9;
    c.mnk = 2;
    v.push_back({c, 64 * 4, 2000});
  }
  {
    FilterConfig c;  // wide fingerprints
    c.l = 64;
    c.b = 4;
    c.f = 24;
    v.push_back({c, 64 * 4 * 2, 1200});
  }
  return v;
}

void run_trace(const TraceShape& shape, std::uint64_t trace_seed) {
  FilterConfig cfg = shape.cfg;
  // Vary the hash seed per trace so bucket/fingerprint collisions differ.
  cfg.hash_seed ^= trace_seed * 0x9E3779B97F4A7C15ull;

  AutoCuckooFilter fast(cfg);
  ReferenceAutoCuckooFilter ref(cfg);
  Rng addr_rng(trace_seed);

  for (int i = 0; i < shape.accesses; ++i) {
    // Zipf-ish reuse: half the draws come from a small hot region.
    const LineAddr x = addr_rng.chance(0.5)
                           ? addr_rng.below(shape.universe / 8 + 1)
                           : addr_rng.below(shape.universe);
    const AutoCuckooFilter::Response got = fast.access(x);
    const ReferenceAutoCuckooFilter::Response want = ref.access(x);
    ASSERT_EQ(got.security, want.security)
        << "trace seed " << trace_seed << ", access " << i << ", addr " << x;
    ASSERT_EQ(got.existed, want.existed)
        << "trace seed " << trace_seed << ", access " << i << ", addr " << x;
    ASSERT_EQ(got.ping_pong, want.ping_pong)
        << "trace seed " << trace_seed << ", access " << i << ", addr " << x;

    if (i % 64 == 0) {
      ASSERT_EQ(fast.size(), ref.valid_count())
          << "occupancy diverged: trace seed " << trace_seed << ", access "
          << i;
      const LineAddr probe = addr_rng.below(shape.universe);
      ASSERT_EQ(fast.contains(probe), ref.contains(probe))
          << "trace seed " << trace_seed << ", access " << i << ", probe "
          << probe;
      ASSERT_EQ(fast.security_of(probe), ref.security_of(probe))
          << "trace seed " << trace_seed << ", access " << i << ", probe "
          << probe;
    }
  }
}

TEST(FilterDifferential, RandomTracesMatchReference) {
  const std::vector<TraceShape> all = shapes();
  // 40 traces x 5 shapes = 200 randomized traces, >= 240k compared
  // accesses; every Response field checked on each.
  for (std::uint64_t t = 0; t < 40; ++t) {
    for (std::size_t s = 0; s < all.size(); ++s) {
      run_trace(all[s], 0xF1000 + t * 16 + s);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

/// The classic filter's shapes: the Auto-Cuckoo shapes plus one bucket
/// (l = 1, so both candidates alias) and one-entry buckets (b = 1).
std::vector<TraceShape> classic_shapes() {
  std::vector<TraceShape> v = shapes();
  {
    FilterConfig c;
    c.l = 1;
    c.b = 8;
    c.f = 8;
    v.push_back({c, 8 * 4, 400});
  }
  {
    FilterConfig c;
    c.l = 64;
    c.b = 1;
    c.f = 8;
    c.mnk = 3;
    v.push_back({c, 64 * 3, 800});
  }
  return v;
}

/// What a classic trace exercised, summed over traces (anti-vacuity).
struct ClassicCoverage {
  std::uint64_t kicks = 0;
  std::uint64_t failed_inserts = 0;
  std::uint64_t steps_with_stash = 0;
  std::uint64_t stash_erases = 0;  ///< erases that emptied the stash
};

void run_classic_trace(const TraceShape& shape, std::uint64_t trace_seed,
                       ClassicCoverage& cov) {
  FilterConfig cfg = shape.cfg;
  cfg.hash_seed ^= trace_seed * 0x9E3779B97F4A7C15ull;

  CuckooFilter fast(cfg);
  ReferenceCuckooFilter ref(cfg);
  Rng rng(trace_seed);
  std::vector<LineAddr> inserted;

  for (int i = 0; i < shape.accesses; ++i) {
    // Half the keys repeat an earlier insert, so erases and probes often
    // find a record, the stashed one included.
    const LineAddr x = !inserted.empty() && rng.chance(0.5)
                           ? inserted[rng.below(inserted.size())]
                           : rng.below(shape.universe);
    const std::uint64_t op = rng.below(8);  // 4/8 insert, 2/8 erase
    const bool stash_before = ref.stash_used();
    if (op < 4) {
      ASSERT_EQ(fast.insert(x), ref.insert(x))
          << "insert: trace seed " << trace_seed << ", step " << i
          << ", addr " << x;
      inserted.push_back(x);
    } else if (op < 6) {
      ASSERT_EQ(fast.erase(x), ref.erase(x))
          << "erase: trace seed " << trace_seed << ", step " << i
          << ", addr " << x;
      cov.stash_erases += stash_before && !ref.stash_used();
    }
    ASSERT_EQ(fast.contains(x), ref.contains(x))
        << "contains: trace seed " << trace_seed << ", step " << i
        << ", addr " << x;
    ASSERT_EQ(fast.size(), ref.size())
        << "trace seed " << trace_seed << ", step " << i;
    ASSERT_EQ(fast.total_kicks(), ref.total_kicks())
        << "trace seed " << trace_seed << ", step " << i;
    ASSERT_EQ(fast.failed_inserts(), ref.failed_inserts())
        << "trace seed " << trace_seed << ", step " << i;
    cov.steps_with_stash += ref.stash_used();
  }
  cov.kicks += ref.total_kicks();
  cov.failed_inserts += ref.failed_inserts();
}

TEST(FilterDifferential, ClassicTracesMatchReference) {
  const std::vector<TraceShape> all = classic_shapes();
  ClassicCoverage cov;
  // 40 traces x 7 shapes of mixed insert / erase / contains steps.
  for (std::uint64_t t = 0; t < 40; ++t) {
    for (std::size_t s = 0; s < all.size(); ++s) {
      run_classic_trace(all[s], 0xC1000 + t * 16 + s, cov);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  // The traces reach every branch: relocation chains, failed inserts
  // that fill the stash, and erases that empty it again.
  EXPECT_GT(cov.kicks, 1'500u);
  EXPECT_GT(cov.failed_inserts, 50'000u);
  EXPECT_GT(cov.steps_with_stash, 100'000u);
  EXPECT_GT(cov.stash_erases, 200u);
}

}  // namespace
}  // namespace pipo
