// Helper shared by the monitor unit tests: pops every prefetch a
// monitor has due by `now`, in FIFO order, the way
// System::drain_prefetches does.
#pragma once

#include <vector>

#include "pipo/monitor_iface.h"

namespace pipo::testutil {

inline std::vector<MonitorIface::ScheduledPrefetch> pop_all_due(
    MonitorIface& mon, Tick now) {
  std::vector<MonitorIface::ScheduledPrefetch> due;
  for (MonitorIface::ScheduledPrefetch p{}; mon.pop_due(now, p);) {
    due.push_back(p);
  }
  return due;
}

}  // namespace pipo::testutil
