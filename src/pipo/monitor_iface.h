// Common interface of LLC-miss monitors that drive the tag/pEvict/
// prefetch machinery in the simulated memory controller: the PiPoMonitor
// (the paper's contribution), the directory-extension stateful baseline
// (CacheGuard-style, Related Work), and the BITP back-invalidation
// prefetcher. The System routes its three observation points (Access,
// pEvict, back-invalidation) through this interface and drains the
// monitor's prefetch queue into the LLC.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace pipo {

/// Result of one observed Access.
struct MonitorAccessResult {
  std::uint32_t security = 0;  ///< detector's counter value (Response)
  bool ping_pong = false;      ///< capture: tag the returning fill
};

/// A prefetch request ready to enter the MC fetch queue; `ready` is the
/// tick at which the monitor issued it, which the system uses to
/// backdate the fetch when draining lazily.
struct MonitorPrefetchRequest {
  Tick ready = 0;
  LineAddr line = 0;
  /// Whether the LLC fill should carry the Ping-Pong tag (detection-based
  /// monitors re-tag their restored lines; BITP's fills are plain).
  bool tag = true;
};

class MonitorIface {
 public:
  virtual ~MonitorIface() = default;

  /// A demand Access from the LLC to memory for `line`.
  virtual MonitorAccessResult on_access(LineAddr line) = 0;

  /// pEvict from the LLC: a tagged line was evicted. Returns whether a
  /// prefetch was scheduled.
  virtual bool on_pevict(Tick now, LineAddr line, bool accessed,
                         bool demand_caused) = 0;

  /// A private copy was back-invalidated by an LLC eviction (only BITP
  /// reacts to this).
  virtual void on_back_invalidation(Tick now, LineAddr line) {
    (void)now;
    (void)line;
  }

  /// Pops every scheduled prefetch whose issue time is <= now.
  virtual std::vector<MonitorPrefetchRequest> take_due_prefetches(
      Tick now) = 0;

  /// Issue time of the front of the prefetch FIFO — the earliest tick at
  /// which take_due_prefetches() pops anything — or kNeverTick when
  /// nothing is pending.
  virtual Tick next_due_tick() const = 0;

  // --- statistics common to all monitors ---
  virtual std::uint64_t captures() const = 0;
  virtual std::uint64_t prefetches_issued() const = 0;
};

/// Monitor of the undefended baseline: observes nothing, issues nothing.
class NullMonitor final : public MonitorIface {
 public:
  MonitorAccessResult on_access(LineAddr) override { return {}; }
  bool on_pevict(Tick, LineAddr, bool, bool) override { return false; }
  std::vector<MonitorPrefetchRequest> take_due_prefetches(Tick) override {
    return {};
  }
  Tick next_due_tick() const override { return kNeverTick; }
  std::uint64_t captures() const override { return 0; }
  std::uint64_t prefetches_issued() const override { return 0; }
};

}  // namespace pipo
