// End-to-end Prime+Probe experiment (Fig 6): a square-and-multiply victim
// on one core, a Prime+Probe attacker on another, with or without
// PiPoMonitor. Returns the attacker's observation matrix and how much of
// the key it recovers.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/system.h"
#include "sim/system_config.h"

namespace pipo {

struct PrimeProbeExperimentConfig {
  SystemConfig system = SystemConfig::paper_default();
  std::uint32_t iterations = 100;  ///< observation rounds (paper: 100)
  Tick interval = 5000;            ///< attack/victim period (paper: 5000)
  std::vector<bool> key;           ///< victim key bits (high to low)
  CoreId attacker_core = 0;
  CoreId victim_core = 1;
};

struct PrimeProbeExperimentResult {
  /// observed[t][i] — attacker inferred the victim touched target t
  /// (0 = square, 1 = multiply) during observation round i
  /// (i in [0, iterations)).
  std::vector<std::vector<bool>> observed;
  /// Ground-truth key bit per round.
  std::vector<bool> truth_multiply;
  /// Fraction of rounds whose multiply observation equals the key bit —
  /// the attacker's key-recovery accuracy. ~1.0 undefended; ~P(bit=1)
  /// with PiPoMonitor (the attacker sees everything as accessed).
  double key_accuracy = 0.0;
  /// Fraction of rounds in which each target was observed.
  std::vector<double> observed_rate;
  System::Stats system_stats;
  /// The active defense's monitor counters (System::active_monitor()).
  std::uint64_t monitor_captures = 0;
  std::uint64_t monitor_prefetches = 0;
};

PrimeProbeExperimentResult run_prime_probe_experiment(
    const PrimeProbeExperimentConfig& cfg);

}  // namespace pipo
