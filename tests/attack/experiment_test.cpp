// End-to-end Fig 6 experiment on the downscaled system: the undefended
// attacker reads the key; PiPoMonitor blinds it.
#include "attack/attack_experiment.h"

#include <gtest/gtest.h>

#include "attack/victim.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

PrimeProbeExperimentConfig base_experiment(bool defended) {
  PrimeProbeExperimentConfig cfg;
  cfg.system = defended ? testcfg::mini() : testcfg::mini_baseline();
  cfg.iterations = 40;
  cfg.interval = 5000;
  cfg.key = make_test_key(40, 77);
  return cfg;
}

TEST(Experiment, UndefendedAttackerRecoversKey) {
  const auto r = run_prime_probe_experiment(base_experiment(false));
  EXPECT_GE(r.key_accuracy, 0.9)
      << "baseline Prime+Probe should read the key almost perfectly";
  // Square is executed every iteration: observed nearly always.
  EXPECT_GE(r.observed_rate[0], 0.9);
}

TEST(Experiment, DefendedAttackerIsBlinded) {
  const auto r = run_prime_probe_experiment(base_experiment(true));
  // Fig 6(b): the attacker observes accesses regardless of the victim:
  // the multiply observation column carries (almost) no key information.
  EXPECT_GE(r.observed_rate[1], 0.9)
      << "with PiPoMonitor the attacker should observe ~every iteration";
  EXPECT_GT(r.monitor_prefetches, 0u);
  EXPECT_GT(r.monitor_captures, 0u);
}

/// The result reports the active defense's monitor, not the disabled
/// PiPoMonitor: it captured, and issued at least every prefetch that
/// landed in the LLC.
void expect_active_monitor_counters(DefenseKind kind) {
  PrimeProbeExperimentConfig cfg = base_experiment(false);
  cfg.system.defense = kind;
  const auto r = run_prime_probe_experiment(cfg);
  EXPECT_GT(r.monitor_captures, 0u);
  EXPECT_GT(r.system_stats.prefetch_fills, 0u);
  EXPECT_GE(r.monitor_prefetches, r.system_stats.prefetch_fills);
}

TEST(Experiment, ReportsDirectoryMonitorCounters) {
  expect_active_monitor_counters(DefenseKind::kDirectoryMonitor);
}

TEST(Experiment, ReportsBitpCounters) {
  expect_active_monitor_counters(DefenseKind::kBitp);
}

TEST(Experiment, DefenseDestroysKeyInformation) {
  const auto undefended = run_prime_probe_experiment(base_experiment(false));
  const auto defended = run_prime_probe_experiment(base_experiment(true));
  // Accuracy against the true key collapses toward the trivial
  // all-ones guess (= fraction of 1 bits).
  double ones = 0;
  for (bool b : defended.truth_multiply) ones += b;
  const double trivial = ones / defended.truth_multiply.size();
  EXPECT_LT(defended.key_accuracy, undefended.key_accuracy - 0.2);
  EXPECT_LE(defended.key_accuracy, trivial + 0.15);
}

TEST(Experiment, ResultShapesAreConsistent) {
  const auto r = run_prime_probe_experiment(base_experiment(false));
  ASSERT_EQ(r.observed.size(), 2u);
  EXPECT_EQ(r.observed[0].size(), 40u);
  EXPECT_EQ(r.observed[1].size(), 40u);
  EXPECT_EQ(r.truth_multiply.size(), 40u);
  EXPECT_GE(r.key_accuracy, 0.0);
  EXPECT_LE(r.key_accuracy, 1.0);
}

TEST(Experiment, RejectsBadConfigs) {
  PrimeProbeExperimentConfig cfg = base_experiment(false);
  cfg.key.clear();
  EXPECT_THROW(run_prime_probe_experiment(cfg), std::invalid_argument);
  cfg = base_experiment(false);
  cfg.attacker_core = cfg.victim_core;
  EXPECT_THROW(run_prime_probe_experiment(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pipo
