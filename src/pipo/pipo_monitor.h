// PiPoMonitor — the paper's detection-and-mitigation engine (Section IV).
//
// The monitor sits inside the memory controller and sees exactly two
// message types:
//
//   Access  — every demand line fetch the LLC sends to memory. The monitor
//             Queries its Auto-Cuckoo filter in parallel with the DRAM
//             fetch (off the critical path); the Response is the line's
//             Security counter. Response >= secThr captures the line as a
//             Ping-Pong line, and the LLC tags it when the fill returns.
//
//   pEvict  — sent by the LLC when a tagged-and-accessed line is evicted.
//             The monitor waits `prefetch_delay` cycles (letting the
//             victim's writeback drain so the prefetch does not preempt
//             memory bandwidth) and then pushes a prefetch request into
//             the MC fetch queue, restoring the line to the LLC and
//             obfuscating the adversary's probe.
//
// The monitor never initiates traffic of its own accord and holds no
// per-line state outside the filter — all Ping-Pong bookkeeping beyond
// the Security counters lives in the LLC's per-line tag bits.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "filter/auto_cuckoo_filter.h"
#include "filter/filter_config.h"
#include "filter/observer.h"
#include "pipo/monitor_iface.h"

namespace pipo {

/// When does the eviction of a Ping-Pong-tagged line re-arm a prefetch?
/// The paper's anti-over-protection rule says a line that has undergone
/// Prefetch is re-prefetched "only when the tagged-accessed line is
/// evicted". The two policies differ in how an evicted, *un*-accessed
/// prefetched line is treated:
enum class PrefetchGate : std::uint8_t {
  /// Re-prefetch when the eviction was caused by a *demand* fill and the
  /// line is either accessed-since-tag or still remembered as Ping-Pong
  /// by the filter (read-only Query on pEvict; the pEvict message carries
  /// one extra bit for the eviction cause). Demand-caused means some
  /// agent is actively pressuring the set — exactly the attack situation —
  /// so a line under attack stays protected across quiet probe rounds
  /// (Fig 6(b): the attacker observes an access every iteration).
  /// Evictions caused by the monitor's own prefetch fills never re-arm,
  /// which kills self-feeding prefetch->evict->prefetch storms on benign
  /// conflict-thrashing sets, and autonomic deletion eventually rotates a
  /// quiet line's record out of the filter, ending its protection.
  kCapturedInFilter,
  /// Strict reading of the paper's rule: drop the line the first time it
  /// is evicted without having been demanded since the prefetch,
  /// regardless of what evicted it. Cheapest possible gate, but
  /// protection lapses during runs of secret bits that do not touch the
  /// line, which leaks those runs (see bench_gate_ablation).
  kAccessedOnly,
};

struct MonitorConfig {
  bool enabled = true;
  FilterConfig filter = FilterConfig::paper_default();
  /// Cycles between receiving a pEvict and issuing the prefetch
  /// ("the delay is to avoid memory bandwidth preemption with the
  /// writeback of the same line" — Section IV).
  std::uint32_t prefetch_delay = 32;
  /// Re-prefetch policy for evicted-but-not-reaccessed prefetched lines.
  PrefetchGate gate = PrefetchGate::kCapturedInFilter;

  static MonitorConfig paper_default() { return MonitorConfig{}; }
};

class PiPoMonitor final : public MonitorIface {
 public:
  explicit PiPoMonitor(const MonitorConfig& cfg,
                       FilterObserver* filter_observer = nullptr)
      : MonitorIface(/*tags_prefetch_fills=*/true),
        cfg_(cfg),
        filter_(cfg.filter, filter_observer) {}

  const MonitorConfig& config() const { return cfg_; }

  /// Result of observing one Access (the filter's Response; ping_pong
  /// means Response >= secThr and the fill should be tagged).
  using AccessResult = MonitorAccessResult;

  /// Observes a demand Access from the LLC for `line`. Runs the filter
  /// Query/insert and returns whether the line is captured as Ping-Pong.
  /// When the monitor is disabled this is a no-op returning no capture.
  AccessResult on_access(LineAddr line) override;

  /// pEvict message from the LLC: a Ping-Pong-tagged line was evicted at
  /// `now`; `accessed` is the line's accessed-since-tag/prefetch bit and
  /// `demand_caused` tells whether a demand fill (rather than one of the
  /// monitor's own prefetch fills) evicted it. Depending on the gate
  /// policy this schedules a prefetch for now + prefetch_delay, or drops
  /// the event (returns false). The system pops it from the FIFO once
  /// due, pushes it into the MC fetch queue and fills the LLC (tagged,
  /// accessed = false).
  bool on_pevict(Tick now, LineAddr line, bool accessed,
                 bool demand_caused) override;

  AutoCuckooFilter& filter() { return filter_; }
  const AutoCuckooFilter& filter() const { return filter_; }

  // --- statistics ---
  std::uint64_t accesses() const { return filter_.accesses(); }
  std::uint64_t captures() const override {
    return filter_.ping_pong_captures();
  }
  std::uint64_t pevicts() const { return pevicts_; }
  std::uint64_t pevicts_dropped() const { return pevicts_dropped_; }

 private:
  MonitorConfig cfg_;
  AutoCuckooFilter filter_;

  std::uint64_t pevicts_ = 0;
  std::uint64_t pevicts_dropped_ = 0;
};

}  // namespace pipo
