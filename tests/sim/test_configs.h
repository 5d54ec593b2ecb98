// Downscaled system configurations shared by the sim/attack test suites:
// same structure as Table II but small enough that tests can force
// evictions and back-invalidations with a handful of accesses.
#pragma once

#include "sim/system_config.h"

namespace pipo::testcfg {

/// 4 cores; L1 2 KB/2w, L2 8 KB/4w, L3 32 KB/8w over 4 slices
/// (16 sets/slice); tiny Auto-Cuckoo filter.
inline SystemConfig mini() {
  SystemConfig cfg;
  cfg.l1i = {"l1i", 2 * 1024, 2, 2};
  cfg.l1d = {"l1d", 2 * 1024, 2, 2};
  cfg.l2 = {"l2", 8 * 1024, 4, 18};
  cfg.l3 = {"l3", 32 * 1024, 8, 35};
  cfg.l3_slices = 4;
  cfg.monitor.filter.l = 64;
  cfg.monitor.filter.b = 4;
  return cfg;
}

inline SystemConfig mini_baseline() {
  SystemConfig cfg = mini();
  cfg.monitor.enabled = false;
  return cfg;
}

/// Lines congruent in the mini() LLC repeat at this line stride.
inline constexpr std::uint64_t mini_l3_stride() {
  return 4ull * 16ull;  // slices * sets_per_slice
}

}  // namespace pipo::testcfg
