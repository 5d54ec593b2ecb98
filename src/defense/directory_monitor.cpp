#include "defense/directory_monitor.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/bitutil.h"

namespace pipo {

DirectoryMonitor::DirectoryMonitor(const DirectoryMonitorConfig& cfg)
    : MonitorIface(/*tags_prefetch_fills=*/true), cfg_(cfg) {
  if (cfg_.sets == 0 || !is_pow2(cfg_.sets)) {
    throw std::invalid_argument(
        "DirectoryMonitor: sets must be a power of two");
  }
  if (cfg_.ways == 0) {
    throw std::invalid_argument("DirectoryMonitor: ways must be >= 1");
  }
  if (cfg_.counter_bits == 0 || cfg_.counter_bits > 8) {
    throw std::invalid_argument(
        "DirectoryMonitor: counter_bits must be in [1,8], got " +
        std::to_string(cfg_.counter_bits));
  }
  if (cfg_.sec_thr > cfg_.counter_max()) {
    throw std::invalid_argument(
        "DirectoryMonitor: sec_thr exceeds counter saturation");
  }
  table_.resize(cfg_.entries());
}

DirectoryMonitor::Entry* DirectoryMonitor::find(LineAddr line) {
  Entry* base = table_.data() + set_of(line) * cfg_.ways;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].line == line) return base + w;
  }
  return nullptr;
}

const DirectoryMonitor::Entry* DirectoryMonitor::find(LineAddr line) const {
  const Entry* base = table_.data() + set_of(line) * cfg_.ways;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].line == line) return base + w;
  }
  return nullptr;
}

MonitorAccessResult DirectoryMonitor::on_access(LineAddr line) {
  ++stamp_;
  if (Entry* e = find(line)) {
    e->counter = std::min(e->counter + 1, cfg_.counter_max());
    e->lru = stamp_;
    const bool pp = e->counter >= cfg_.sec_thr;
    if (pp) ++captures_;
    return MonitorAccessResult{e->counter, pp};
  }
  // Miss: insert, evicting the deterministic LRU victim — the property
  // that makes this table reverse-engineerable.
  Entry* base = table_.data() + set_of(line) * cfg_.ways;
  Entry* victim = base;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (!base[w].valid) {
      victim = base + w;
      break;
    }
    if (base[w].lru < victim->lru) victim = base + w;
  }
  if (victim->valid) ++evictions_;
  *victim = Entry{true, line, 0, stamp_};
  return MonitorAccessResult{0, false};
}

bool DirectoryMonitor::on_pevict(Tick now, LineAddr line, bool accessed,
                                 bool demand_caused) {
  bool rearm = demand_caused;
  if (rearm && !accessed) {
    const auto c = counter_of(line);
    rearm = c && *c >= cfg_.sec_thr;
  }
  if (!rearm) return false;
  schedule_prefetch(now + cfg_.prefetch_delay, line);
  return true;
}

std::optional<std::uint32_t> DirectoryMonitor::counter_of(
    LineAddr line) const {
  const Entry* e = find(line);
  if (!e) return std::nullopt;
  return e->counter;
}

}  // namespace pipo
