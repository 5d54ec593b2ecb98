// LRU replacement for set-associative caches.
//
// The paper's gem5 baseline uses LRU, and the Prime+Probe attacker's
// zig-zag probe order assumes it; every cache array in the simulator
// holds one LruPolicy by value.
//
// An LruPolicy owns the recency state of ALL sets of one cache array
// and is driven by four events: on_fill, on_access (hit), on_invalidate
// and victim selection. Way indices returned by victim() are always
// valid ways; the caller is responsible for preferring invalid (free)
// ways before asking for a victim.
//
// Every operation is O(1). The policy keeps one bit per way in a 64-bit
// per-set word — the same packed-occupancy trick CacheArray uses — so it
// requires ways <= 64. Decision-for-decision equivalence with the seed's
// naive O(ways)-scan implementation is enforced by the differential
// oracle in tests/oracle/.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitutil.h"

namespace pipo {

/// True LRU with O(1) victim selection: a doubly-linked recency list per
/// set (head = oldest, tail = most recent) plus a bitmask of ways that
/// "look oldest" (never touched, or invalidated). The mask preserves the
/// seed implementation's tie-breaking exactly: stamp-0 ways are all
/// minimal, and the first-index scan picks the lowest such way — here
/// the mask's lowest set bit.
class LruPolicy {
 public:
  LruPolicy(std::size_t sets, std::uint32_t ways);

  /// A line was filled into (set, way).
  void on_fill(std::size_t set, std::uint32_t way) { touch(set, way); }
  /// A line at (set, way) was hit.
  void on_access(std::size_t set, std::uint32_t way) { touch(set, way); }
  /// Chooses the way to evict from `set`.
  std::uint32_t victim(std::size_t set) const {
    if (zero_[set]) {
      return static_cast<std::uint32_t>(std::countr_zero(zero_[set]));
    }
    return heads_[set];
  }
  /// A line at (set, way) was invalidated (back-invalidation / coherence).
  void on_invalidate(std::size_t set, std::uint32_t way) {
    const std::uint64_t bit = std::uint64_t{1} << way;
    if (zero_[set] & bit) return;  // already looks oldest
    unlink(set, way);
    zero_[set] |= bit;
  }

  /// Canonical serialization of the recency state, for the oracle
  /// layer's serialize/replay equality checks: two instances with equal
  /// snapshots behave identically forever after. Encoding: sets*ways
  /// words; word (set, way) is 0 when the way looks oldest, else 1 + its
  /// recency rank from the LRU end.
  std::vector<std::uint64_t> snapshot() const;

 private:
  static constexpr std::uint8_t kNil = 0xFF;

  void touch(std::size_t set, std::uint32_t way) {
    const std::uint64_t bit = std::uint64_t{1} << way;
    if (zero_[set] & bit) {
      zero_[set] &= ~bit;
    } else if (tails_[set] == way) {
      return;  // already most recent
    } else {
      unlink(set, way);
    }
    const std::size_t base = set * ways_;
    prev_[base + way] = tails_[set];
    next_[base + way] = kNil;
    if (tails_[set] != kNil) next_[base + tails_[set]] = static_cast<std::uint8_t>(way);
    tails_[set] = static_cast<std::uint8_t>(way);
    if (heads_[set] == kNil) heads_[set] = static_cast<std::uint8_t>(way);
  }

  /// Removes a LINKED way from its set's recency list.
  void unlink(std::size_t set, std::uint32_t way) {
    const std::size_t base = set * ways_;
    const std::uint8_t p = prev_[base + way];
    const std::uint8_t n = next_[base + way];
    if (p != kNil) next_[base + p] = n; else heads_[set] = n;
    if (n != kNil) prev_[base + n] = p; else tails_[set] = p;
  }

  std::uint32_t ways_;
  std::size_t sets_;
  std::vector<std::uint64_t> zero_;   ///< per-set mask of oldest-looking ways
  std::vector<std::uint8_t> heads_;   ///< per-set LRU end (kNil = empty)
  std::vector<std::uint8_t> tails_;   ///< per-set MRU end (kNil = empty)
  std::vector<std::uint8_t> prev_;    ///< per-(set,way) list links
  std::vector<std::uint8_t> next_;
};

}  // namespace pipo
