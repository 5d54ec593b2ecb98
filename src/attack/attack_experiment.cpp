#include "attack/attack_experiment.h"

#include <memory>
#include <stdexcept>

#include "attack/eviction_set.h"
#include "attack/prime_probe.h"
#include "attack/victim.h"
#include "sim/simulation.h"
#include "workload/trace.h"

namespace pipo {

PrimeProbeExperimentResult run_prime_probe_experiment(
    const PrimeProbeExperimentConfig& cfg) {
  if (cfg.key.empty()) {
    throw std::invalid_argument("experiment needs a victim key");
  }
  if (cfg.attacker_core == cfg.victim_core ||
      cfg.attacker_core >= cfg.system.num_cores ||
      cfg.victim_core >= cfg.system.num_cores) {
    throw std::invalid_argument("attacker and victim need distinct cores");
  }

  // Victim code addresses: two routine entry points in the victim's
  // text segment, far apart so they map to different LLC sets.
  const Addr victim_text = Addr{0x7F00} << 24;
  const Addr square_addr = victim_text;
  const Addr multiply_addr = victim_text + (Addr{1} << 16) + 0x40;

  Simulation sim(cfg.system);
  const LlcGeometry geo = LlcGeometry::from(cfg.system);

  // Attacker: one full-associativity eviction set per target.
  const Addr attacker_base = Addr{0x1BAD} << 28;
  AttackerConfig acfg;
  acfg.eviction_sets = {
      build_eviction_set(geo, square_addr, geo.ways, attacker_base),
      build_eviction_set(geo, multiply_addr, geo.ways,
                         attacker_base + (Addr{1} << 30)),
  };
  acfg.interval = cfg.interval;
  acfg.traversals = cfg.iterations + 1;  // +1: initial prime round
  acfg.miss_threshold = sim.system().llc_miss_threshold();
  auto attacker = std::make_unique<PrimeProbeAttacker>(acfg);
  PrimeProbeAttacker* attacker_raw = attacker.get();

  // Victim: one key bit per interval, aligned with the attack schedule.
  VictimConfig vcfg;
  vcfg.square_addr = square_addr;
  vcfg.multiply_addr = multiply_addr;
  vcfg.key = cfg.key;
  vcfg.bit_period = cfg.interval;
  vcfg.multiply_phase = cfg.interval / 2;
  vcfg.start_offset = 64;
  vcfg.iterations = cfg.iterations + 2;
  auto victim = std::make_unique<SquareMultiplyVictim>(vcfg);
  SquareMultiplyVictim* victim_raw = victim.get();

  sim.set_workload(cfg.attacker_core, std::move(attacker));
  sim.set_workload(cfg.victim_core, std::move(victim));
  for (CoreId c = 0; c < cfg.system.num_cores; ++c) {
    if (c != cfg.attacker_core && c != cfg.victim_core) {
      sim.set_workload(c, std::make_unique<IdleWorkload>());
    }
  }

  const Tick max_ticks =
      (static_cast<Tick>(cfg.iterations) + 4) * cfg.interval + 1'000'000;
  sim.run(max_ticks);

  PrimeProbeExperimentResult result;
  // Traversal k >= 1 observes window k-1 (victim bit k-1). Re-index so
  // result.observed[t][i] corresponds to victim iteration i.
  const auto& obs = attacker_raw->observations();
  result.observed.assign(obs.size(), std::vector<bool>(cfg.iterations, false));
  for (std::size_t t = 0; t < obs.size(); ++t) {
    for (std::uint32_t i = 0; i < cfg.iterations; ++i) {
      result.observed[t][i] = obs[t][i + 1];
    }
  }
  result.truth_multiply.resize(cfg.iterations);
  for (std::uint32_t i = 0; i < cfg.iterations; ++i) {
    result.truth_multiply[i] = victim_raw->key_bit(i);
  }

  std::uint32_t correct = 0;
  result.observed_rate.assign(obs.size(), 0.0);
  for (std::uint32_t i = 0; i < cfg.iterations; ++i) {
    if (result.observed[1][i] == result.truth_multiply[i]) ++correct;
    for (std::size_t t = 0; t < obs.size(); ++t) {
      result.observed_rate[t] +=
          result.observed[t][i] ? 1.0 / cfg.iterations : 0.0;
    }
  }
  result.key_accuracy = static_cast<double>(correct) / cfg.iterations;
  result.system_stats = sim.system().stats();
  const MonitorIface& mon = sim.system().active_monitor();
  result.monitor_captures = mon.captures();
  result.monitor_prefetches = mon.prefetches_issued();
  return result;
}

}  // namespace pipo
