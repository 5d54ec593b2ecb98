// On-chip memory controller model (Fig 2: the MC hosts the fetch queue
// that both demand misses and PiPoMonitor prefetches go through).
//
// Timing model: a single DRAM channel with fixed access latency
// (Table II: 200 cycles) plus a burst-occupancy term serializing
// back-to-back requests. This captures the two effects the evaluation
// depends on: the large LLC-miss/LLC-hit latency gap that Prime+Probe
// classifies, and bandwidth contention between demand traffic, writebacks
// and monitor prefetches (the reason the paper delays prefetches after a
// pEvict).
#pragma once

#include <cstdint>

#include "common/types.h"

namespace pipo {

struct MemConfig {
  std::uint32_t dram_latency = 200;     ///< Table II: 200-cycle latency
  std::uint32_t channel_occupancy = 4;  ///< cycles one burst holds the channel

  static MemConfig paper_default() { return MemConfig{}; }
};

class MemController {
 public:
  explicit MemController(const MemConfig& cfg) : cfg_(cfg) {}

  /// Kind of fetch, for statistics. Writebacks go through writeback().
  enum class Reason : std::uint8_t { kDemand, kPrefetch };

  /// Issues a line fetch at `now`; returns the tick at which data is
  /// available at the LLC. Queueing delay accrues when the channel is
  /// still occupied by an earlier burst.
  Tick fetch(Tick now, LineAddr line, Reason reason);

  /// Issues a writeback (not on any load's critical path; modeled only
  /// for channel occupancy and statistics).
  void writeback(Tick now, LineAddr line);

  const MemConfig& config() const { return cfg_; }

  // --- statistics ---
  std::uint64_t demand_fetches() const { return demand_fetches_; }
  std::uint64_t prefetch_fetches() const { return prefetch_fetches_; }
  std::uint64_t writebacks() const { return writebacks_; }
  std::uint64_t total_queue_delay() const { return total_queue_delay_; }
  void reset_stats() {
    demand_fetches_ = prefetch_fetches_ = writebacks_ = 0;
    total_queue_delay_ = 0;
  }

 private:
  Tick occupy_channel(Tick now);

  MemConfig cfg_;
  Tick busy_until_ = 0;
  std::uint64_t demand_fetches_ = 0;
  std::uint64_t prefetch_fetches_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t total_queue_delay_ = 0;
};

}  // namespace pipo
