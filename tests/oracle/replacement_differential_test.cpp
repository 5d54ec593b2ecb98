// Differential oracle for LRU replacement: drives the optimized
// production LruPolicy and the naive reference implementation through
// identical randomized traces and asserts every victim decision
// matches, step by step.
//
// Two trace shapes:
//  * adversarial — uniformly random on_fill / on_access / on_invalidate /
//    victim ops over random (set, way) pairs, including degenerate
//    sequences a real cache would never issue (double invalidates,
//    accesses to never-filled ways);
//  * cache-like — the CacheArray discipline: victim() is consulted, the
//    returned way is filled, resident ways get hit with locality.
//
// 1000 traces per shape; a single divergent victim anywhere in any trace
// fails with the trace seed in the message, so failures are reproducible
// by construction.
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "cache/replacement.h"
#include "common/rng.h"
#include "tests/oracle/reference_replacement.h"

namespace pipo {
namespace {

using oracle::ReferenceLru;

constexpr int kTraces = 1000;
constexpr int kOpsPerTrace = 160;

/// Geometry for one trace: small enough that sets refill and age many
/// times within kOpsPerTrace.
struct Geometry {
  std::size_t sets;
  std::uint32_t ways;
};

Geometry random_geometry(Rng& rng) {
  constexpr std::uint32_t any[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 33, 64};
  const std::size_t sets = std::size_t{1} << rng.below(4);  // 1..8
  const std::uint32_t ways = any[rng.below(std::size(any))];
  return Geometry{sets, ways};
}

void adversarial_trace(std::uint64_t trace_seed) {
  Rng rng(trace_seed);
  const Geometry g = random_geometry(rng);
  LruPolicy fast(g.sets, g.ways);
  ReferenceLru ref(g.sets, g.ways);

  for (int op = 0; op < kOpsPerTrace; ++op) {
    const std::size_t set = rng.below(g.sets);
    const auto way = static_cast<std::uint32_t>(rng.below(g.ways));
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2:
        fast.on_fill(set, way);
        ref.on_fill(set, way);
        break;
      case 3:
      case 4:
      case 5:
      case 6:
        fast.on_access(set, way);
        ref.on_access(set, way);
        break;
      case 7:
        fast.on_invalidate(set, way);
        ref.on_invalidate(set, way);
        break;
      default: {
        const std::uint32_t got = fast.victim(set);
        const std::uint32_t want = ref.victim(set);
        ASSERT_EQ(got, want)
            << "LRU diverged: trace seed " << trace_seed << ", op " << op
            << ", set " << set << " (sets=" << g.sets << ", ways=" << g.ways
            << ")";
        break;
      }
    }
  }
}

void cache_like_trace(std::uint64_t trace_seed) {
  Rng rng(trace_seed);
  const Geometry g = random_geometry(rng);
  LruPolicy fast(g.sets, g.ways);
  ReferenceLru ref(g.sets, g.ways);

  // Per-set fill count models the free-way preference: the caller only
  // asks for a victim once the set is full.
  std::vector<std::uint32_t> filled(g.sets, 0);
  for (int op = 0; op < kOpsPerTrace; ++op) {
    const std::size_t set = rng.below(g.sets);
    if (filled[set] < g.ways) {
      const std::uint32_t way = filled[set]++;
      fast.on_fill(set, way);
      ref.on_fill(set, way);
    } else if (rng.chance(0.6)) {
      // Hit a resident way (with front-of-set locality bias).
      const auto way = static_cast<std::uint32_t>(
          rng.below(rng.chance(0.5) ? g.ways : (g.ways + 1) / 2));
      fast.on_access(set, way);
      ref.on_access(set, way);
    } else if (rng.chance(0.1)) {
      const auto way = static_cast<std::uint32_t>(rng.below(g.ways));
      fast.on_invalidate(set, way);
      ref.on_invalidate(set, way);
      // The array would reuse the freed way before asking for victims
      // again; modelling that via refill keeps the trace cache-faithful.
      fast.on_fill(set, way);
      ref.on_fill(set, way);
    } else {
      const std::uint32_t got = fast.victim(set);
      const std::uint32_t want = ref.victim(set);
      ASSERT_EQ(got, want)
          << "LRU diverged: trace seed " << trace_seed << ", op " << op
          << ", set " << set << " (sets=" << g.sets << ", ways=" << g.ways
          << ")";
      ASSERT_LT(got, g.ways);
      fast.on_fill(set, got);
      ref.on_fill(set, want);
    }
  }
}

TEST(LruDifferential, AdversarialTracesMatchReference) {
  for (int t = 0; t < kTraces; ++t) {
    adversarial_trace(0xAD0000 + t);
    if (HasFatalFailure()) return;
  }
}

TEST(LruDifferential, CacheLikeTracesMatchReference) {
  for (int t = 0; t < kTraces; ++t) {
    cache_like_trace(0xCA0000 + t);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pipo
