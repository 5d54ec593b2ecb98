// filter_explorer: standalone exploration of the Auto-Cuckoo filter —
// occupancy growth, collision behaviour, autonomic deletion, and the
// adversarial eviction costs — without the cache simulator.
//
// Usage: ./build/example_filter_explorer [l] [b] [f] [mnk]
//
// The defaults are the paper's filter (l=1024, b=8, f=12, MNK=4), and
// at that size the targeted-attack section runs for more than five
// minutes: each of its fills searches about l^2/2 random addresses for
// one whose candidate buckets match an attack-tree edge, then rescans
// all l*b audit entries for the target. `64 8 12 4` takes about 0.1 s.
#include <cstdio>
#include <cstdlib>

#include "common/parse_num.h"

#include "attack/filter_attack.h"
#include "common/rng.h"
#include "filter/audit.h"
#include "filter/auto_cuckoo_filter.h"

int main(int argc, char** argv) try {
  using namespace pipo;

  FilterConfig cfg;
  if (argc > 1) cfg.l = parse_uint32(argv[1], "l", 1);
  if (argc > 2) cfg.b = parse_uint32(argv[2], "b", 1);
  if (argc > 3) cfg.f = parse_uint32(argv[3], "f", 1);
  if (argc > 4) cfg.mnk = parse_uint32(argv[4], "mnk", 1);
  cfg.validate();

  std::printf("Auto-Cuckoo filter: l=%u b=%u f=%u MNK=%u secThr=%u\n",
              cfg.l, cfg.b, cfg.f, cfg.mnk, cfg.sec_thr);
  std::printf("  capacity %llu entries, %.1f KB, eps=%.5f\n\n",
              static_cast<unsigned long long>(cfg.entries()),
              cfg.storage_kib(), cfg.false_positive_rate());

  // --- occupancy growth under random insertions ---
  FilterAudit audit(cfg);
  AutoCuckooFilter filter(cfg, &audit);
  Rng rng(2024);
  std::printf("%-12s %-10s %-10s %-12s\n", "insertions", "occupancy",
              "kicks", "auto-drops");
  const std::uint64_t total = cfg.entries() * 4;
  for (std::uint64_t i = 1; i <= total; ++i) {
    filter.access(rng.below(1ull << 40));
    if (i % (total / 8) == 0) {
      std::printf("%-12llu %8.1f%% %10llu %12llu\n",
                  static_cast<unsigned long long>(i),
                  filter.occupancy() * 100.0,
                  static_cast<unsigned long long>(filter.total_kicks()),
                  static_cast<unsigned long long>(
                      filter.autonomic_deletions()));
    }
  }

  // --- collision ground truth ---
  std::printf("\nfingerprint collisions (ground truth):\n");
  std::printf("  entries with >=2 merged addresses: %.3f%%\n",
              audit.collision_entry_ratio() * 100.0);
  for (const auto& [k, n] : audit.collision_histogram()) {
    if (k >= 2) {
      std::printf("    %zu addresses merged: %llu entries\n", k,
                  static_cast<unsigned long long>(n));
    }
  }

  // --- adversarial eviction cost (Section VI-B, scaled trials) ---
  std::printf("\nadversarial eviction of one record:\n");
  const auto brute = brute_force_attack(cfg, 10, 99, cfg.entries() * 64);
  std::printf("  brute force: mean %.0f fills (theory b*l = %.0f)\n",
              brute.mean_fills, brute.theory);
  const auto targeted = targeted_attack(cfg, 10, 99, cfg.entries() * 64);
  std::printf("  targeted   : mean %.0f fills%s (eviction-set theory "
              "b^(MNK+1) = %.0f)\n",
              targeted.mean_fills, targeted.censored ? " [censored]" : "",
              targeted.theory);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "filter_explorer: %s\n", e.what());
  return 2;
}
