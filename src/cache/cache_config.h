// Geometry and latency configuration for one cache level.
//
// Defaults throughout the repo follow Table II of the paper:
//   L1I/L1D  64 KB, 4-way, 2 cycles, private, inclusive
//   L2      256 KB, 8-way, 18 cycles, private, inclusive
//   L3        4 MB, 16-way, 35 cycles, shared, sliced, inclusive
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bitutil.h"
#include "common/types.h"

namespace pipo {

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 64 * 1024;
  std::uint32_t ways = 4;
  std::uint32_t latency = 2;  ///< access (hit) latency in cycles

  std::uint64_t num_lines() const { return size_bytes / kLineSizeBytes; }
  std::uint64_t num_sets() const { return num_lines() / ways; }

  void validate() const {
    if (size_bytes == 0 || size_bytes % kLineSizeBytes != 0) {
      throw std::invalid_argument(name + ": size must be a multiple of the line size");
    }
    if (ways == 0 || num_lines() % ways != 0) {
      throw std::invalid_argument(name + ": ways must divide the line count");
    }
    if (!is_pow2(num_sets())) {
      throw std::invalid_argument(name + ": number of sets must be a power of two");
    }
  }

  // Table II presets.
  static CacheConfig l1i() { return {"l1i", 64 * 1024, 4, 2}; }
  static CacheConfig l1d() { return {"l1d", 64 * 1024, 4, 2}; }
  static CacheConfig l2() { return {"l2", 256 * 1024, 8, 18}; }
  /// Total shared L3 (all slices together).
  static CacheConfig l3() { return {"l3", 4 * 1024 * 1024, 16, 35}; }
};

}  // namespace pipo
