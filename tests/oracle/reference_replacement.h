// Straight-from-the-paper reference LRU for the differential oracle
// layer.
//
// ReferenceLru is the seed repository's original naive implementation,
// kept deliberately simple and scan-based: per-line access stamps,
// O(ways) victim scans, no packed summaries. The production LruPolicy in
// src/cache/replacement.h is optimized (O(1) victim selection); the
// differential drivers in replacement_differential_test.cpp assert that
// both produce identical victim sequences over randomized traces, so the
// reference code here is the specification and must stay boring.
#pragma once

#include <cstdint>
#include <vector>

namespace pipo::oracle {

/// Seed LruPolicy: true LRU via per-line monotonically increasing access
/// stamps; victim is the first way with the minimal stamp.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t sets, std::uint32_t ways)
      : ways_(ways), stamp_(sets * ways, 0) {}
  void on_fill(std::size_t set, std::uint32_t way) { touch(set, way); }
  void on_access(std::size_t set, std::uint32_t way) { touch(set, way); }
  std::uint32_t victim(std::size_t set) const {
    std::uint32_t best = 0;
    std::uint64_t best_stamp = stamp_[set * ways_];
    for (std::uint32_t w = 1; w < ways_; ++w) {
      if (stamp_[set * ways_ + w] < best_stamp) {
        best_stamp = stamp_[set * ways_ + w];
        best = w;
      }
    }
    return best;
  }
  void on_invalidate(std::size_t set, std::uint32_t way) {
    stamp_[set * ways_ + way] = 0;  // invalid lines look oldest
  }

 private:
  void touch(std::size_t set, std::uint32_t way) {
    stamp_[set * ways_ + way] = ++clock_;
  }
  std::uint32_t ways_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamp_;
};

}  // namespace pipo::oracle
