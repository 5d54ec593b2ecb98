#include "fuzz/scenario.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "attack/eviction_set.h"
#include "attack/prime_probe.h"
#include "attack/victim.h"
#include "fabric/campaign.h"
#include "sim/simulation.h"
#include "workload/stream_trace.h"
#include "workload/trace.h"

namespace pipo {

namespace {

/// Domain separator folded into g.key_seed for the permutation test, so
/// the significance shuffles are independent of the victim-key stream
/// derived from the same seed.
constexpr std::uint64_t kPermSeedSalt = 0xC0FFEE5EED5ull;
/// Likewise for the attacker's bypass-mix stream.
constexpr std::uint64_t kMixSeedSalt = 0x9B57A11Full;

}  // namespace

const char* defense_short_name(DefenseKind k) {
  switch (k) {
    case DefenseKind::kNone: return "none";
    case DefenseKind::kPiPoMonitor: return "pipo";
    case DefenseKind::kDirectoryMonitor: return "dir";
    case DefenseKind::kSharp: return "sharp";
    case DefenseKind::kBitp: return "bitp";
    case DefenseKind::kRic: return "ric";
  }
  return "?";
}

std::string fuzz_cell_name(const FuzzCellAxes& axes) {
  std::string name = defense_short_name(axes.defense);
  name += axes.inclusion == InclusionPolicy::kInclusive ? "_inc" : "_exc";
  name += axes.slice_hash == SliceHashKind::kLowBits ? "_low" : "_cas";
  name += '_';
  name += to_string(axes.monitor_level);
  return name;
}

FuzzCellAxes parse_fuzz_cell_name(const std::string& name) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= name.size()) {
    const auto us = name.find('_', start);
    const auto end = us == std::string::npos ? name.size() : us;
    parts.push_back(name.substr(start, end - start));
    if (us == std::string::npos) break;
    start = us + 1;
  }
  if (parts.size() != 4) {
    throw std::invalid_argument(
        "fuzz cell name needs 4 '_'-separated parts "
        "(<defense>_<inclusion>_<slicehash>_<monitorlevel>): " + name);
  }
  // Each part is spelled as its campaign flag's value.
  return FuzzCellAxes{parse_defense(parts[0]), parse_inclusion(parts[1]),
                      parse_slice_hash_kind(parts[2]),
                      parse_monitor_level(parts[3])};
}

SystemConfig fuzz_system_config(const FuzzCellAxes& axes) {
  // The testcfg::mini machine (tests/sim/test_configs.h): Table II's
  // structure, scaled so a candidate scenario runs in milliseconds.
  SystemConfig cfg;
  cfg.l1i = {"l1i", 2 * 1024, 2, 2};
  cfg.l1d = {"l1d", 2 * 1024, 2, 2};
  cfg.l2 = {"l2", 8 * 1024, 4, 18};
  cfg.l3 = {"l3", 32 * 1024, 8, 35};
  cfg.l3_slices = 4;
  cfg.monitor.filter.l = 64;
  cfg.monitor.filter.b = 4;
  cfg.defense = axes.defense;
  cfg.monitor.enabled = axes.defense == DefenseKind::kPiPoMonitor;
  cfg.inclusion = axes.inclusion;
  cfg.slice_hash = axes.slice_hash;
  cfg.monitor_level = axes.monitor_level;
  return cfg;
}

ScenarioOutcome run_fuzz_scenario(const ScenarioGenotype& g,
                                  const SystemConfig& sys,
                                  std::uint32_t perm_rounds,
                                  const TraceCapture* capture) {
  ScenarioGenotype checked = g;
  checked.clamp();
  if (!(checked == g)) {
    throw std::invalid_argument("genotype out of bounds: " + g.to_string());
  }
  if (sys.num_cores < 2) {
    throw std::invalid_argument("fuzz scenario needs >= 2 cores");
  }

  // Same experiment layout as run_prime_probe_experiment
  // (attack/attack_experiment.cpp): victim text at a fixed segment, the
  // two routine entry points far enough apart for distinct LLC sets,
  // attacker eviction sets in their own region.
  const Addr victim_text = Addr{0x7F00} << 24;
  const Addr square_addr = victim_text;
  const Addr multiply_addr = victim_text + (Addr{1} << 16) + 0x40;
  const Addr attacker_base = Addr{0x1BAD} << 28;
  const std::uint32_t iterations = g.key_bits;

  Simulation sim(sys);
  const LlcGeometry geo = LlcGeometry::from(sys);

  AttackerConfig acfg;
  acfg.eviction_sets = {
      build_eviction_set_strided(geo, square_addr, g.ev_lines, attacker_base,
                                 g.ev_stride),
      build_eviction_set_strided(geo, multiply_addr, g.ev_lines,
                                 attacker_base + (Addr{1} << 30),
                                 g.ev_stride),
  };
  acfg.interval = g.interval;
  acfg.traversals = iterations + 1;  // +1: initial prime round
  acfg.miss_threshold = sim.system().llc_miss_threshold();
  acfg.bypass_pct = g.bypass_pct;
  acfg.mix_seed = g.key_seed ^ kMixSeedSalt;
  acfg.far_delay = g.far_delay;
  acfg.far_period = g.far_period;
  auto attacker = std::make_unique<PrimeProbeAttacker>(acfg);
  PrimeProbeAttacker* attacker_raw = attacker.get();

  VictimConfig vcfg;
  vcfg.square_addr = square_addr;
  vcfg.multiply_addr = multiply_addr;
  vcfg.key = make_test_key(g.key_bits, g.key_seed);
  vcfg.bit_period = g.interval;
  vcfg.multiply_phase =
      std::max<Tick>(1, g.interval * g.phase_pct / 100);
  vcfg.start_offset = 64;
  vcfg.iterations = iterations + 2;
  auto victim = std::make_unique<SquareMultiplyVictim>(vcfg);
  SquareMultiplyVictim* victim_raw = victim.get();

  // Corpus capture: record exactly the request streams the simulation
  // consumes (TraceRecorder is invisible to the run). Idle cores are not
  // recorded — assign_trace_scenario idle-fills them on replay.
  std::vector<TraceRecorder*> recorders;
  auto place = [&](CoreId core, std::unique_ptr<Workload> w) {
    if (capture != nullptr) {
      std::filesystem::create_directories(capture->dir);
      auto rec = std::make_unique<TraceRecorder>(
          std::move(w),
          capture->dir + "/core" + std::to_string(core) + ".trace",
          capture->format);
      recorders.push_back(rec.get());
      sim.set_workload(core, std::move(rec));
    } else {
      sim.set_workload(core, std::move(w));
    }
  };
  place(0, std::move(attacker));
  place(1, std::move(victim));
  for (CoreId c = 2; c < sys.num_cores; ++c) {
    sim.set_workload(c, std::make_unique<IdleWorkload>());
  }

  // Budget: the historical slack plus room for every far-future delay
  // the schedule can inject (each of the ~2*ev_lines probes per
  // traversal may carry one).
  const std::uint64_t total_probes =
      static_cast<std::uint64_t>(acfg.traversals) * 2 * g.ev_lines;
  const Tick far_slack =
      g.far_period == 0
          ? 0
          : (total_probes / g.far_period + 1) * g.far_delay;
  const Tick max_ticks =
      (static_cast<Tick>(iterations) + 4) * g.interval + 1'000'000 +
      far_slack;
  sim.run(max_ticks);
  for (TraceRecorder* rec : recorders) rec->finish();

  // Observation symbols: traversal k >= 1 observes victim iteration
  // k-1; quantize the multiply-set latency sums into obs_bins
  // equal-width symbols over the trace's own [min, max] span.
  const auto& lat = attacker_raw->latency_sums();
  const std::uint32_t rounds = std::min<std::uint32_t>(
      iterations, attacker_raw->completed_traversals() > 0
                      ? attacker_raw->completed_traversals() - 1
                      : 0);
  ScenarioOutcome out;
  out.rounds = rounds;
  out.obs_hist.assign(g.obs_bins, 0);
  std::vector<std::uint32_t> key_syms(rounds), obs_syms(rounds);
  if (rounds > 0) {
    std::uint64_t lo = lat[1][1], hi = lat[1][1];
    for (std::uint32_t i = 0; i < rounds; ++i) {
      lo = std::min(lo, lat[1][i + 1]);
      hi = std::max(hi, lat[1][i + 1]);
    }
    const std::uint64_t span = hi - lo + 1;
    for (std::uint32_t i = 0; i < rounds; ++i) {
      key_syms[i] = victim_raw->key_bit(i) ? 1 : 0;
      obs_syms[i] =
          static_cast<std::uint32_t>((lat[1][i + 1] - lo) * g.obs_bins / span);
      ++out.obs_hist[obs_syms[i]];
    }
    const SymbolTally t = tally_symbols(key_syms, obs_syms, 2, g.obs_bins);
    const MiSignificance sig = permutation_test_mi(
        key_syms, obs_syms, 2, g.obs_bins, perm_rounds,
        g.key_seed ^ kPermSeedSalt);
    out.mi_bits = sig.mi_bits;
    out.p_value = sig.p_value;
    out.decoder_acc = best_decoder_accuracy(t);
  }
  out.stats = sim.system().stats();
  out.captures = sim.system().active_monitor().captures();
  out.prefetches = sim.system().active_monitor().prefetches_issued();
  out.signature =
      coverage_signature(out.stats, out.captures, out.prefetches,
                         out.obs_hist);
  return out;
}

}  // namespace pipo
