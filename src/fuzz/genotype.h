// The fuzzer's search space: one attack scenario as a small, bounded,
// mutable value.
//
// A ScenarioGenotype describes a complete cross-core attack scenario —
// prime/probe cadence, eviction-set shape and size, bypass-probe mix,
// victim access pattern, far-future timing, and the
// observation quantization — everything run_fuzz_scenario (scenario.h)
// needs to instantiate attacker + victim on a simulated machine. Every
// field lives in a hard [lo, hi] bound (kGenotypeBounds); clamp()
// re-establishes the bounds after any mutation, so every genotype the
// fuzzer can ever produce is runnable by construction.
//
// Mutation and crossover are *deterministic* given the caller's Rng:
// the same seed produces the same genotype stream forever (the fuzzer
// determinism test pins this byte for byte). Each operator returns a
// human-readable description line for the mutation log.
//
// The canonical text form (to_string/parse, fixed field order, prefix
// "PPG1:") is the genotype's identity everywhere: corpus entries, fuzz
// campaign cells on the fabric wire, log lines, and the determinism
// test's genotype stream. parse(to_string(g)) == g exactly.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/types.h"

namespace pipo {

struct ScenarioGenotype {
  // --- attack schedule ---
  Tick interval = 5000;           ///< prime/probe cadence in ticks
  std::uint32_t ev_lines = 8;     ///< eviction-set size per target
  std::uint32_t ev_stride = 1;    ///< congruence-stride multiplier (shape)
  std::uint32_t bypass_pct = 100; ///< % of probes bypassing private caches
  // --- far-future timing ---
  Tick far_delay = 0;             ///< injected pre_delay (0 = off)
  std::uint32_t far_period = 0;   ///< probes between injections (0 = off)
  // --- victim access pattern ---
  std::uint32_t key_bits = 60;    ///< key length = observation rounds
  std::uint32_t phase_pct = 50;   ///< multiply fetch offset, % of interval
  std::uint64_t key_seed = 0xF00D; ///< victim key derivation seed
  // --- observation quantization ---
  std::uint32_t obs_bins = 4;     ///< latency-histogram symbols per round

  bool operator==(const ScenarioGenotype&) const = default;

  /// Canonical single-line text form ("PPG1:interval=...,..."), stable
  /// field order, lowercase hex seed. parse() round-trips it exactly.
  std::string to_string() const;

  /// Parses the canonical form; throws std::invalid_argument naming the
  /// offending field on any deviation (wrong prefix, missing/reordered
  /// field, junk, out-of-bounds value).
  static ScenarioGenotype parse(const std::string& s);

  /// Clamps every field into its kGenotypeBounds range (and repairs
  /// cross-field constraints, e.g. phase_pct keeping the multiply fetch
  /// strictly inside the period).
  void clamp();
};

/// Inclusive per-field bounds of the search space. Exposed so tests can
/// assert mutation closure without copying the numbers.
struct GenotypeBounds {
  Tick interval_lo = 600, interval_hi = 20'000;
  std::uint32_t ev_lines_lo = 2, ev_lines_hi = 24;
  std::uint32_t ev_stride_lo = 1, ev_stride_hi = 8;
  std::uint32_t bypass_pct_lo = 0, bypass_pct_hi = 100;
  Tick far_delay_lo = 0, far_delay_hi = 60'000;
  std::uint32_t far_period_lo = 0, far_period_hi = 64;
  std::uint32_t key_bits_lo = 24, key_bits_hi = 96;
  std::uint32_t phase_pct_lo = 10, phase_pct_hi = 90;
  std::uint32_t obs_bins_lo = 2, obs_bins_hi = 8;
};
inline constexpr GenotypeBounds kGenotypeBounds{};

/// The paper's Fig 6 attack expressed as a genotype — the seed corpus
/// always contains it, so the fuzzer starts from known-fertile ground.
ScenarioGenotype paper_like_genotype();

/// A fresh random genotype, every field uniform in its bounds.
ScenarioGenotype random_genotype(Rng& rng);

/// Mutates 1–3 randomly chosen fields in place with bounded steps;
/// returns a log line like "interval 5000->6200, bypass_pct 100->85".
std::string mutate_genotype(ScenarioGenotype& g, Rng& rng);

/// Uniform per-field crossover of two parents; returns the child (and
/// appends nothing to the log — the fuzzer logs the parent indices).
ScenarioGenotype crossover_genotype(const ScenarioGenotype& a,
                                    const ScenarioGenotype& b, Rng& rng);

}  // namespace pipo
