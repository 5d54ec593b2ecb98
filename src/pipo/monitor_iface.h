// Common interface of LLC-miss monitors that drive the tag/pEvict/
// prefetch machinery in the simulated memory controller: the PiPoMonitor
// (the paper's contribution), the directory-extension stateful baseline
// (CacheGuard-style, Related Work), and the BITP back-invalidation
// prefetcher. The System routes its three observation points (Access,
// pEvict, back-invalidation) through this interface and drains the
// monitor's prefetch FIFO into the LLC.
#pragma once

#include <cstdint>
#include <deque>

#include "common/types.h"

namespace pipo {

/// Result of one observed Access.
struct MonitorAccessResult {
  std::uint32_t security = 0;  ///< detector's counter value (Response)
  bool ping_pong = false;      ///< capture: tag the returning fill
};

class MonitorIface {
 public:
  /// A prefetch waiting to enter the MC fetch queue at tick `ready`;
  /// the system backdates the fetch to `ready` when it drains lazily.
  struct ScheduledPrefetch {
    Tick ready;
    LineAddr line;
  };

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

  /// Issue time of the front of the prefetch FIFO — the earliest tick at
  /// which pop_due() pops anything — or kNeverTick when nothing is
  /// pending.
  Tick next_due_tick() const {
    return fifo_.empty() ? kNeverTick : fifo_.front().ready;
  }

  /// Pops the front of the prefetch FIFO into `out` if it is due by
  /// `now`, and counts it; returns false, leaving `out` alone, otherwise.
  bool pop_due(Tick now, ScheduledPrefetch& out) {
    if (fifo_.empty() || fifo_.front().ready > now) return false;
    out = fifo_.front();
    fifo_.pop_front();
    ++popped_;
    return true;
  }

  /// Whether the LLC fills of this monitor's prefetches carry the
  /// Ping-Pong tag (detection-based monitors re-tag their restored
  /// lines; BITP's fills are plain).
  bool tags_prefetch_fills() const { return tags_prefetch_fills_; }

  // --- statistics common to all monitors ---
  virtual std::uint64_t captures() const = 0;
  /// Prefetches issued: by default those popped from the FIFO.
  virtual std::uint64_t prefetches_issued() const { return popped_; }

 protected:
  explicit MonitorIface(bool tags_prefetch_fills)
      : tags_prefetch_fills_(tags_prefetch_fills) {}

  /// Queues a prefetch of `line` to issue at `ready`. Each monitor
  /// schedules at `now` plus its constant delay, which keeps the FIFO
  /// sorted by `ready`.
  void schedule_prefetch(Tick ready, LineAddr line) {
    fifo_.push_back(ScheduledPrefetch{ready, line});
  }

 private:
  std::deque<ScheduledPrefetch> fifo_;
  std::uint64_t popped_ = 0;
  bool tags_prefetch_fills_;
};

}  // namespace pipo
