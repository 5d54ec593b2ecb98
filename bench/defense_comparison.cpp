// Related Work comparison (Section VIII): PiPoMonitor vs the defense
// baselines it is positioned against — the CacheGuard-style directory
// extension (stateful), SHARP, BITP and RIC (stateless).
//
// Three axes, matching the paper's argument:
//   (1) security — the Fig 6 Prime+Probe experiment under each defense:
//       key-recovery accuracy and how much the attacker still observes;
//   (2) benign cost — mix1 (the most memory-intensive Table III mix):
//       defense-generated prefetch traffic and execution-time ratio;
//   (3) recording structure — storage bits and the cost for a
//       defense-aware adversary to flush a tracked record (deterministic
//       `ways` inserts for the LRU table vs b*l expected random fills for
//       the Auto-Cuckoo filter).
#include <cstdio>
#include <vector>

#include "analysis/perf_experiment.h"
#include "attack/attack_experiment.h"
#include "attack/victim.h"
#include "defense/directory_monitor.h"
#include "fabric/campaign.h"
#include "filter/filter_config.h"

int main() {
  using namespace pipo;

  const std::vector<DefenseKind> kinds = all_defenses();

  // --- (1) security: Fig 6 experiment per defense ---
  std::printf("Defense comparison, Table II machine\n\n");
  std::printf("(1) Prime+Probe key recovery (100 iterations @ 5000 "
              "cycles; lower accuracy = better defense)\n");
  std::printf("%-18s %-14s %-19s %-19s\n", "defense", "key accuracy",
              "multiply observed", "defense prefetches");
  for (DefenseKind kind : kinds) {
    PrimeProbeExperimentConfig cfg;
    cfg.system = SystemConfig::with_defense(kind);
    cfg.iterations = 100;
    cfg.key = make_test_key(100, 0xFEED);
    const auto r = run_prime_probe_experiment(cfg);
    std::printf("%-18s %-14.2f %-19.2f %-19llu\n", to_string(kind),
                r.key_accuracy, r.observed_rate[1],
                static_cast<unsigned long long>(
                    r.system_stats.prefetch_fills));
  }

  // --- (2) benign cost on mix1 ---
  std::printf("\n(2) benign cost, mix1, 1M instructions/core, working "
              "sets /16\n");
  std::printf("%-18s %-22s %-16s\n", "defense", "prefetches per Mi",
              "exec time ratio");
  const auto base =
      run_mix_perf(1, SystemConfig::baseline(), 1'000'000, 42, 16);
  for (DefenseKind kind : kinds) {
    if (kind == DefenseKind::kNone) continue;
    const auto r = run_mix_perf(1, SystemConfig::with_defense(kind),
                                1'000'000, 42, 16);
    const double pf_per_mi =
        static_cast<double>(r.stats.prefetch_fills) * 1e6 /
        static_cast<double>(r.instructions);
    std::printf("%-18s %-22.1f %-16.4f\n", to_string(kind), pf_per_mi,
                static_cast<double>(r.exec_time) /
                    static_cast<double>(base.exec_time));
  }

  // --- (3) recording structure ---
  std::printf("\n(3) recording structure (stateful defenses)\n");
  std::printf("%-18s %-14s %-14s %-30s\n", "scheme", "entries",
              "storage KB", "flush a tracked record");
  {
    const FilterConfig f = FilterConfig::paper_default();
    std::printf("%-18s %-14llu %-14.1f %-30s\n", "Auto-Cuckoo",
                static_cast<unsigned long long>(f.entries()),
                f.storage_kib(),
                "b*l = 8192 expected random fills");
  }
  {
    DirectoryMonitorConfig d;  // same 8192 tracked lines
    std::printf("%-18s %-14llu %-14.1f %-30s\n", "directory ext.",
                static_cast<unsigned long long>(d.entries()),
                static_cast<double>(d.storage_bits()) / 8.0 / 1024.0,
                "ways = 8 deterministic inserts");
  }
  std::printf("%-18s %-14s %-14s %-30s\n", "SHARP/BITP/RIC", "-", "~0",
              "(stateless: nothing to flush)");

  std::printf(
      "\ncheck: only the stateful monitors blind the attacker on the "
      "multiply line; PiPoMonitor matches the directory extension's "
      "protection at ~40%% of the storage with no deterministic flush "
      "path; the stateless baselines either leak (RIC protects only "
      "read-only data it can exempt, BITP floods prefetches on benign "
      "back-invalidations) or rely on alarms (SHARP).\n");
  return 0;
}
