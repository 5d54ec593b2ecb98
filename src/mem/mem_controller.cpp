#include "mem/mem_controller.h"

namespace pipo {

Tick MemController::occupy_channel(Tick now) {
  const Tick start = busy_until_ > now ? busy_until_ : now;
  total_queue_delay_ += start - now;
  busy_until_ = start + cfg_.channel_occupancy;
  return start;
}

Tick MemController::fetch(Tick now, LineAddr line, Reason reason) {
  (void)line;
  switch (reason) {
    case Reason::kDemand: ++demand_fetches_; break;
    case Reason::kPrefetch: ++prefetch_fetches_; break;
  }
  const Tick start = occupy_channel(now);
  return start + cfg_.dram_latency;
}

void MemController::writeback(Tick now, LineAddr line) {
  (void)line;
  ++writebacks_;
  occupy_channel(now);
}

}  // namespace pipo
