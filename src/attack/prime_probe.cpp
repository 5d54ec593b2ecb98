#include "attack/prime_probe.h"

#include <stdexcept>

namespace pipo {

PrimeProbeAttacker::PrimeProbeAttacker(AttackerConfig cfg)
    : cfg_(std::move(cfg)), mix_rng_(cfg_.mix_seed) {
  if (cfg_.eviction_sets.empty()) {
    throw std::invalid_argument("attacker needs at least one eviction set");
  }
  if (cfg_.bypass_pct > 100) {
    throw std::invalid_argument("bypass_pct must be in [0,100]");
  }
  // pre_delay is a 32-bit field; a larger far_delay would silently
  // truncate into a *different* schedule.
  if (cfg_.far_delay > (Tick{1} << 30)) {
    throw std::invalid_argument("far_delay must be <= 2^30 ticks");
  }
  for (const auto& set : cfg_.eviction_sets) {
    if (set.empty()) {
      throw std::invalid_argument("eviction sets must be non-empty");
    }
    total_lines_ += set.size();
  }
  observed_.assign(cfg_.eviction_sets.size(),
                   std::vector<bool>(cfg_.traversals, false));
  misses_.assign(cfg_.eviction_sets.size(),
                 std::vector<std::uint32_t>(cfg_.traversals, 0));
  latency_.assign(cfg_.eviction_sets.size(),
                  std::vector<std::uint64_t>(cfg_.traversals, 0));
}

std::pair<std::size_t, std::size_t> PrimeProbeAttacker::locate(
    std::size_t pos) const {
  std::size_t target = 0;
  while (pos >= cfg_.eviction_sets[target].size()) {
    pos -= cfg_.eviction_sets[target].size();
    ++target;
  }
  // Zig-zag: odd traversals walk each set backwards.
  const std::size_t n = cfg_.eviction_sets[target].size();
  const std::size_t idx = (traversal_ % 2 == 0) ? pos : n - 1 - pos;
  return {target, idx};
}

std::optional<MemRequest> PrimeProbeAttacker::next(Tick now) {
  if (traversal_ >= cfg_.traversals) return std::nullopt;

  const auto [target, idx] = locate(pos_);
  MemRequest req;
  req.addr = cfg_.eviction_sets[target][idx];
  req.type = AccessType::kLoad;
  req.bypass_private = true;
  // Mixed probe pattern: a bypass_pct below 100 sends the remainder of
  // the probes through the private hierarchy. The historical pure
  // pattern (100) must stay byte-identical, so the RNG is only drawn
  // when a mix is actually configured.
  if (cfg_.bypass_pct < 100) {
    req.bypass_private = mix_rng_.below(100) < cfg_.bypass_pct;
  }
  if (pos_ == 0) {
    // Pace the traversal start on the absolute schedule k * interval.
    const Tick when = static_cast<Tick>(traversal_) * cfg_.interval;
    req.pre_delay = when > now ? static_cast<std::uint32_t>(when - now) : 0;
  } else {
    req.pre_delay = 0;  // pointer-chase through the set back-to-back
  }
  // Far-future perturbation: push every far_period-th probe far into
  // the future (a long idle gap for the uncore tick to skip through).
  // Self-delay only — the absolute pacing above re-synchronizes the
  // following traversal.
  if (cfg_.far_period != 0 &&
      ++probes_issued_ % cfg_.far_period == 0) {
    req.pre_delay += static_cast<std::uint32_t>(cfg_.far_delay);
  }
  return req;
}

void PrimeProbeAttacker::on_complete(const MemRequest&, Tick issued,
                                     Tick completed) {
  const std::uint32_t latency =
      static_cast<std::uint32_t>(completed - issued);
  const std::size_t target = locate(pos_).first;
  latency_[target][traversal_] += latency;
  if (latency > cfg_.miss_threshold) {
    ++misses_[target][traversal_];
    observed_[target][traversal_] = true;
  }
  if (++pos_ == total_lines_) {
    pos_ = 0;
    ++traversal_;
    ++completed_;
  }
}

}  // namespace pipo
