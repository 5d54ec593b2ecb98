// BITP — back-invalidation prefetcher (Panda, PACT'19; Related Work of
// the paper). A *stateless* detection-based defense: whenever an LLC
// eviction back-invalidates a private copy, the line is prefetched back
// from memory, so an attacker that evicted a victim line through LLC
// conflicts finds it resident again when it probes.
//
// Contrast with PiPoMonitor (the paper's stateful approach): BITP reacts
// to every back-invalidation — which "vastly exist in benign execution"
// (Section I) — so its prefetch traffic scales with ordinary inclusive-
// hierarchy churn rather than with detected Ping-Pong patterns. The
// defense-comparison bench quantifies exactly that trade-off.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "pipo/monitor_iface.h"

namespace pipo {

struct BitpConfig {
  /// Cycles between the back-invalidation and the prefetch issue.
  std::uint32_t prefetch_delay = 32;
};

class BitpPrefetcher final : public MonitorIface {
 public:
  explicit BitpPrefetcher(const BitpConfig& cfg)
      : MonitorIface(/*tags_prefetch_fills=*/false), cfg_(cfg) {}

  const BitpConfig& config() const { return cfg_; }

  /// BITP performs no Access-side detection.
  MonitorAccessResult on_access(LineAddr) override { return {}; }

  /// BITP never tags lines, so pEvicts cannot occur.
  bool on_pevict(Tick, LineAddr, bool, bool) override { return false; }

  /// The trigger: a private copy died with an LLC eviction.
  void on_back_invalidation(Tick now, LineAddr line) override {
    ++back_invalidations_;
    schedule_prefetch(now + cfg_.prefetch_delay, line);
  }

  std::uint64_t captures() const override { return back_invalidations_; }
  /// BITP counts a prefetch as issued when it schedules it, not when the
  /// system pops it: one per back-invalidation.
  std::uint64_t prefetches_issued() const override {
    return back_invalidations_;
  }

 private:
  BitpConfig cfg_;
  std::uint64_t back_invalidations_ = 0;
};

}  // namespace pipo
