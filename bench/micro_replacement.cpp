// Replacement microbenchmark: the O(1) linked-list LruPolicy vs. the
// seed's naive O(ways)-scan LRU. The baseline class is the differential
// oracle's reference (tests/oracle/reference_replacement.h) — the bench
// measures exactly the legacy code the oracle proves the fast path
// equivalent to.
//
// Two workloads, both at LLC-slice geometry (1024 sets, 16 ways):
//  * thrash — every op asks for a victim and fills it (miss storm);
//  * mixed  — 70% hits, 30% victim+fill (steady state with locality).
//
// Reports ops/sec, human-readable by default, one JSON object with
// --json for BENCH_engine.json trajectories.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "cache/replacement.h"
#include "tests/oracle/reference_replacement.h"

namespace {

using namespace pipo;

using LegacyLru = oracle::ReferenceLru;

constexpr std::size_t kSets = 1024;
constexpr std::uint32_t kWays = 16;

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Miss storm: every op is a victim selection followed by the fill of
/// that victim. `sink` defeats dead-code elimination.
template <typename Policy>
double thrash(std::uint64_t total, std::uint64_t& sink) {
  Policy p(kSets, kWays);
  for (std::size_t s = 0; s < kSets; ++s) {
    for (std::uint32_t w = 0; w < kWays; ++w) p.on_fill(s, w);
  }
  std::uint64_t rng = 42;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::size_t set = splitmix(rng) & (kSets - 1);
    const std::uint32_t v = p.victim(set);
    sink += v;
    p.on_fill(set, v);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(total) /
         std::chrono::duration<double>(t1 - t0).count();
}

/// Steady state: 70% hits on resident ways, 30% victim+fill.
template <typename Policy>
double mixed(std::uint64_t total, std::uint64_t& sink) {
  Policy p(kSets, kWays);
  for (std::size_t s = 0; s < kSets; ++s) {
    for (std::uint32_t w = 0; w < kWays; ++w) p.on_fill(s, w);
  }
  std::uint64_t rng = 7;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t r = splitmix(rng);
    const std::size_t set = r & (kSets - 1);
    if ((r >> 32) % 10 < 7) {
      p.on_access(set, static_cast<std::uint32_t>((r >> 48) & (kWays - 1)));
    } else {
      const std::uint32_t v = p.victim(set);
      sink += v;
      p.on_fill(set, v);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(total) /
         std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  constexpr std::uint64_t kTotal = 20'000'000;
  constexpr int kReps = 3;

  // Best-of-N: the throughput ceiling is the policy's property, the
  // slower repetitions are the machine's.
  struct Cell {
    double legacy = 0, engine = 0;
  };
  Cell lru_thrash, lru_mixed;
  std::uint64_t sink = 0;
  auto max = [](double a, double b) { return a >= b ? a : b; };
  for (int r = 0; r < kReps; ++r) {
    lru_thrash.legacy = max(lru_thrash.legacy, thrash<LegacyLru>(kTotal, sink));
    lru_thrash.engine = max(lru_thrash.engine, thrash<LruPolicy>(kTotal, sink));
    lru_mixed.legacy = max(lru_mixed.legacy, mixed<LegacyLru>(kTotal, sink));
    lru_mixed.engine = max(lru_mixed.engine, mixed<LruPolicy>(kTotal, sink));
  }

  if (json) {
    std::printf(
        "{\"bench\":\"micro_replacement\",\"ops\":%llu,"
        "\"sets\":%zu,\"ways\":%u,"
        "\"lru_thrash\":{\"legacy_ops\":%.0f,\"engine_ops\":%.0f,"
        "\"speedup\":%.2f},"
        "\"lru_mixed\":{\"legacy_ops\":%.0f,\"engine_ops\":%.0f,"
        "\"speedup\":%.2f},\"sink\":%llu}\n",
        static_cast<unsigned long long>(kTotal), kSets, kWays,
        lru_thrash.legacy, lru_thrash.engine,
        lru_thrash.engine / lru_thrash.legacy, lru_mixed.legacy,
        lru_mixed.engine, lru_mixed.engine / lru_mixed.legacy,
        static_cast<unsigned long long>(sink));
    return 0;
  }

  std::printf("micro_replacement: %llu ops per workload, %zu sets x %u ways\n\n",
              static_cast<unsigned long long>(kTotal), kSets, kWays);
  std::printf("%-22s %15s %15s %9s\n", "workload", "legacy ops/s",
              "engine ops/s", "speedup");
  auto row = [](const char* name, const Cell& c) {
    std::printf("%-22s %15.2e %15.2e %8.2fx\n", name, c.legacy, c.engine,
                c.engine / c.legacy);
  };
  row("lru    thrash", lru_thrash);
  row("lru    mixed", lru_mixed);
  return 0;
}
