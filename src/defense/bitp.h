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
#include <deque>
#include <vector>

#include "common/types.h"
#include "pipo/monitor_iface.h"

namespace pipo {

struct BitpConfig {
  /// Cycles between the back-invalidation and the prefetch issue.
  std::uint32_t prefetch_delay = 32;
};

class BitpPrefetcher final : public MonitorIface {
 public:
  explicit BitpPrefetcher(const BitpConfig& cfg) : cfg_(cfg) {}

  const BitpConfig& config() const { return cfg_; }

  /// BITP performs no Access-side detection.
  MonitorAccessResult on_access(LineAddr) override { return {}; }

  /// BITP never tags lines, so pEvicts cannot occur.
  bool on_pevict(Tick, LineAddr, bool, bool) override { return false; }

  /// The trigger: a private copy died with an LLC eviction.
  void on_back_invalidation(Tick now, LineAddr line) override {
    ++back_invalidations_;
    pending_.push_back(Pending{now + cfg_.prefetch_delay, line});
    ++prefetches_issued_;
  }

  std::vector<MonitorPrefetchRequest> take_due_prefetches(
      Tick now) override {
    std::vector<MonitorPrefetchRequest> due;
    while (!pending_.empty() && pending_.front().ready <= now) {
      due.push_back(MonitorPrefetchRequest{pending_.front().ready,
                                           pending_.front().line,
                                           /*tag=*/false});
      pending_.pop_front();
    }
    return due;
  }

  Tick next_due_tick() const override {
    return pending_.empty() ? kNeverTick : pending_.front().ready;
  }

  std::uint64_t captures() const override { return back_invalidations_; }
  std::uint64_t prefetches_issued() const override {
    return prefetches_issued_;
  }
  std::uint64_t back_invalidations() const { return back_invalidations_; }

 private:
  struct Pending {
    Tick ready;
    LineAddr line;
  };

  BitpConfig cfg_;
  std::deque<Pending> pending_;
  std::uint64_t back_invalidations_ = 0;
  std::uint64_t prefetches_issued_ = 0;
};

}  // namespace pipo
