#include "pipo/pipo_monitor.h"

namespace pipo {

PiPoMonitor::AccessResult PiPoMonitor::on_access(LineAddr line) {
  if (!cfg_.enabled) return AccessResult{};
  const AutoCuckooFilter::Response resp = filter_.access(line);
  return AccessResult{resp.security, resp.ping_pong};
}

bool PiPoMonitor::on_pevict(Tick now, LineAddr line, bool accessed,
                            bool demand_caused) {
  if (!cfg_.enabled) return false;
  ++pevicts_;
  bool rearm;
  if (cfg_.gate == PrefetchGate::kAccessedOnly) {
    rearm = accessed;
  } else {
    // kCapturedInFilter: only demand-caused evictions re-arm (a prefetch
    // fill evicting a sibling must not chain into a prefetch storm), and
    // an un-reaccessed line additionally needs its filter record to still
    // report Ping-Pong (read-only Query). The record ages out via
    // autonomic deletion, which bounds how long a quiet line keeps being
    // restored.
    rearm = demand_caused;
    if (rearm && !accessed) {
      const auto sec = filter_.security_of(line);
      rearm = sec && *sec >= cfg_.filter.sec_thr;
    }
  }
  if (!rearm) {
    ++pevicts_dropped_;
    return false;
  }
  schedule_prefetch(now + cfg_.prefetch_delay, line);
  return true;
}

}  // namespace pipo
