// Coverage signatures: what "novel behavior" means to the fuzzer.
//
// Score alone (leakage) makes a fuzzer greedy — it climbs the first
// hill it finds and never visits the defense's other failure modes. The
// coverage signature makes *novelty* a first-class acceptance reason:
// each scenario run is summarized as a tuple of log2-bucketed event
// counters (the full System::Stats vector, the active defense's
// capture/prefetch activity, and the observation-symbol histogram), and
// a candidate whose signature was never seen before survives into the
// population even when its leakage is unremarkable. Log2 bucketing is
// deliberately coarse: two runs count as "the same behavior" unless
// some event class changed by ~2x, so the signature space stays small
// enough to saturate while still separating e.g. a back-invalidation
// storm from a quiet bypass sweep.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.h"

namespace pipo {

/// Observation-histogram bins in a signature.
inline constexpr std::size_t kCoverageObsBins = 8;

/// The System::Stats counters (PIPO_SYSTEM_STATS order) + captures +
/// prefetches + the observation histogram bins, each as a log2 bucket
/// (0 for zero, else 1 + floor(log2(v)), saturating at 255 —
/// unreachable for u64).
inline constexpr std::size_t kCoverageSlots =
    System::Stats::kCounters + 2 + kCoverageObsBins;
// The rendered signature is part of every fuzz record and corpus entry.
static_assert(kCoverageSlots == 25, "coverage signature layout changed");

struct CoverageSignature {
  std::array<std::uint8_t, kCoverageSlots> bucket{};

  bool operator==(const CoverageSignature&) const = default;
  bool operator<(const CoverageSignature& o) const {
    return bucket < o.bucket;
  }

  /// Compact hex rendering (two digits per slot) — the form embedded in
  /// fuzz campaign records and the novelty set's key.
  std::string to_string() const;
};

/// log2 bucket of one counter (exposed for tests).
std::uint8_t coverage_bucket(std::uint64_t v);

/// Builds the signature for one scenario run. `obs_hist` is the
/// observation-symbol histogram (<= 8 bins; missing bins count as 0).
CoverageSignature coverage_signature(const System::Stats& s,
                                     std::uint64_t captures,
                                     std::uint64_t prefetches,
                                     const std::vector<std::uint64_t>& obs_hist);

}  // namespace pipo
