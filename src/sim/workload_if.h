// The contract between a simulated core and whatever drives it — a
// synthetic SPEC-like generator, a replayed trace, the Prime+Probe
// attacker or the square-and-multiply victim.
//
// Ownership and lifetime: Workloads are owned by the Simulation (handed
// over through Simulation::set_workload) and outlive every CoreModel
// that drives them; a CoreModel only borrows the pointer. One Workload
// instance drives exactly one core and is called from that core's event
// callbacks only — never concurrently (the engine is single-threaded by
// design; parallel sweeps run one Simulation per thread).
//
// Tick semantics: `now` arguments and the issued/completed pair are
// absolute ticks of the shared simulation clock (one tick = one core
// cycle). A workload that finished (returned nullopt) is never asked
// again within the same run.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.h"

namespace pipo {

/// One memory request plus the non-memory work preceding it.
struct MemRequest {
  Addr addr = 0;
  AccessType type = AccessType::kLoad;
  /// Cycles of non-memory work executed before this access issues. The
  /// core model charges them at one instruction per cycle, so this is
  /// simultaneously the instruction gap and the time gap.
  std::uint32_t pre_delay = 0;
  /// Skip the issuing core's private L1/L2 and access the LLC directly.
  /// Models the engineered probe patterns of LLC Prime+Probe attackers
  /// (eviction sets sized and ordered to defeat private caches, Liu et
  /// al. S&P'15): every probe reaches the shared LLC and updates its
  /// replacement state, and no private copy is installed.
  bool bypass_private = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Next request, or nullopt when the workload has finished. `now` is
  /// the tick at which the previous request completed (attackers use it
  /// to pace absolute-time schedules).
  virtual std::optional<MemRequest> next(Tick now) = 0;

  /// Completion callback with the measured latency — this is the
  /// attacker's timing channel (rdtscp around the probe access).
  /// `issued` is the tick the access entered the memory system and
  /// `completed` the tick its response arrived; both are absolute.
  /// Called before the next() that follows the request, on the same
  /// core, in program order.
  virtual void on_complete(const MemRequest& req, Tick issued,
                           Tick completed) {
    (void)req; (void)issued; (void)completed;
  }
};

}  // namespace pipo
