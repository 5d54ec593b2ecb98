// Property tests for LRU replacement, alongside the differential
// oracle:
//  * victim() always returns a valid way, whatever the preceding trace;
//  * a way just filled is never the immediately following victim (with
//    >= 2 ways);
//  * replaying a recorded trace into a fresh instance reproduces the
//    policy state exactly (snapshot() equality plus identical future
//    victim sequences) — the policy is a pure function of its op trace;
//  * construction rejects more ways than the 64-bit looks-oldest mask
//    holds.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "cache/replacement.h"
#include "common/rng.h"

namespace pipo {
namespace {

constexpr int kTraces = 300;
constexpr int kOpsPerTrace = 120;

struct Op {
  enum Kind : std::uint8_t { kFill, kAccess, kInvalidate, kVictim } kind;
  std::size_t set;
  std::uint32_t way;
};

std::vector<Op> random_trace(Rng& rng, std::size_t sets, std::uint32_t ways,
                             int ops) {
  std::vector<Op> trace;
  trace.reserve(ops);
  for (int i = 0; i < ops; ++i) {
    Op op;
    op.set = rng.below(sets);
    op.way = static_cast<std::uint32_t>(rng.below(ways));
    const std::uint64_t k = rng.below(10);
    op.kind = k < 3   ? Op::kFill
              : k < 7 ? Op::kAccess
              : k < 8 ? Op::kInvalidate
                      : Op::kVictim;
    trace.push_back(op);
  }
  return trace;
}

/// Applies the trace, returning every victim produced.
std::vector<std::uint32_t> drive(LruPolicy& p, const std::vector<Op>& trace) {
  std::vector<std::uint32_t> victims;
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::kFill: p.on_fill(op.set, op.way); break;
      case Op::kAccess: p.on_access(op.set, op.way); break;
      case Op::kInvalidate: p.on_invalidate(op.set, op.way); break;
      case Op::kVictim: victims.push_back(p.victim(op.set)); break;
    }
  }
  return victims;
}

std::uint32_t random_ways(Rng& rng) {
  constexpr std::uint32_t any[] = {1, 2, 3, 4, 7, 8, 16, 33, 64};
  return any[rng.below(std::size(any))];
}

TEST(LruProperty, VictimIsAlwaysAValidWay) {
  for (int t = 0; t < kTraces; ++t) {
    Rng rng(0x11000 + t);
    const std::size_t sets = std::size_t{1} << rng.below(4);
    const std::uint32_t ways = random_ways(rng);
    LruPolicy p(sets, ways);
    const auto trace = random_trace(rng, sets, ways, kOpsPerTrace);
    for (std::uint32_t v : drive(p, trace)) {
      ASSERT_LT(v, ways) << "trace " << t << " (sets=" << sets
                         << ", ways=" << ways << ")";
    }
  }
}

TEST(LruProperty, ReplayedTraceReproducesStateAndFutureVictims) {
  for (int t = 0; t < kTraces; ++t) {
    Rng rng(0x22000 + t);
    const std::size_t sets = std::size_t{1} << rng.below(4);
    const std::uint32_t ways = random_ways(rng);
    const auto trace = random_trace(rng, sets, ways, kOpsPerTrace);

    LruPolicy a(sets, ways);
    LruPolicy b(sets, ways);
    const auto victims_a = drive(a, trace);
    const auto victims_b = drive(b, trace);
    ASSERT_EQ(victims_a, victims_b) << "trace " << t;
    ASSERT_EQ(a.snapshot(), b.snapshot()) << "trace " << t;

    // The replayed instance continues identically.
    for (std::size_t set = 0; set < sets; ++set) {
      ASSERT_EQ(a.victim(set), b.victim(set))
          << "trace " << t << ", set " << set;
    }
    ASSERT_EQ(a.snapshot(), b.snapshot()) << "trace " << t;
  }
}

TEST(LruProperty, FilledWayNeverImmediatelyReVictimized) {
  // Fill-pressure discipline: ask for a victim, fill it, ask again — the
  // just-filled way is most-recent and must not come straight back.
  for (int t = 0; t < kTraces; ++t) {
    Rng rng(0x33000 + t);
    const std::size_t sets = std::size_t{1} << rng.below(3);
    // A 1-way set trivially re-victimizes its only way; the property
    // needs at least two.
    const std::uint32_t ways = std::max(2u, random_ways(rng));
    LruPolicy p(sets, ways);
    for (std::size_t set = 0; set < sets; ++set) {
      for (std::uint32_t w = 0; w < ways; ++w) p.on_fill(set, w);
    }
    for (int i = 0; i < kOpsPerTrace; ++i) {
      const std::size_t set = rng.below(sets);
      if (rng.chance(0.5)) {
        p.on_access(set, static_cast<std::uint32_t>(rng.below(ways)));
      } else {
        const std::uint32_t v = p.victim(set);
        p.on_fill(set, v);
        ASSERT_NE(p.victim(set), v)
            << "trace " << t << ", step " << i << ", set " << set;
      }
    }
  }
}

TEST(LruProperty, RejectsMoreThan64Ways) {
  // The looks-oldest mask holds one bit per way in a 64-bit word,
  // matching CacheArray's packed-occupancy limit.
  EXPECT_THROW(LruPolicy(1, 65), std::invalid_argument);
  EXPECT_NO_THROW(LruPolicy(1, 64));
}

}  // namespace
}  // namespace pipo
