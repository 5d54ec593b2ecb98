// SHARP — secure hierarchy-aware replacement (Yan et al., ISCA'17;
// Related Work of the paper). A stateless LLC-replacement defense: when
// the LLC must evict, it prefers victims that live in *no* private cache
// (evicting them causes no back-invalidation an attacker could have
// engineered); only when every candidate is privately held does it fall
// back to a random victim, and each such forced cross-core eviction
// increments a per-requester alarm counter (SHARP's detection signal).
//
// Against Prime+Probe this removes the attacker's lever: priming a set
// cannot evict the victim's line while the victim still holds it
// privately — unless the whole set is privately held, which raises
// alarms. The defense-comparison bench shows the observed effect and the
// alarm counts under attack vs benign mixes.
#pragma once

#include <cstdint>
#include <optional>

#include "cache/cache_array.h"
#include "common/rng.h"

namespace pipo {

/// Victim chooser implementing SHARP's two-step policy. Stateless apart
/// from alarm statistics; plugged into CacheArray::fill by the System on
/// LLC fills when the SHARP defense is selected.
class SharpChooser final : public VictimChooser {
 public:
  explicit SharpChooser(std::uint64_t seed) : rng_(seed) {}

  /// Step 1: any line cached in no private cache (presence == 0) — the
  /// replacement-policy victim among those would be ideal, but SHARP
  /// specifies *random* among unowned lines; Step 2: all lines are
  /// privately held — random victim + alarm. A set with a free way never
  /// gets here (VictimChooser's precondition).
  std::optional<std::uint32_t> choose(const CacheWay* set,
                                      std::uint32_t ways) override {
    std::uint32_t unowned[64];
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < ways && n < 64; ++w) {
      if (set[w].line.presence == 0) unowned[n++] = w;
    }
    if (n > 0) return unowned[rng_.below(n)];
    ++alarms_;
    return static_cast<std::uint32_t>(rng_.below(ways));
  }

  std::uint64_t alarms() const { return alarms_; }

 private:
  Rng rng_;
  std::uint64_t alarms_ = 0;
};

}  // namespace pipo
