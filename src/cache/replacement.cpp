#include "cache/replacement.h"

#include <stdexcept>
#include <string>

namespace pipo {

namespace {

/// The looks-oldest mask keeps one bit per way in a 64-bit per-set word
/// (CacheArray's packed-occupancy limit).
std::uint32_t checked_mask_ways(std::uint32_t ways) {
  if (ways == 0 || ways > 64) {
    // Appends rather than operator+ chains: gcc 12's -Wrestrict trips a
    // known false positive on the temporary-concatenation pattern.
    std::string msg = "LruPolicy requires 1..64 ways, got ";
    msg += std::to_string(ways);
    throw std::invalid_argument(msg);
  }
  return ways;
}

}  // namespace

LruPolicy::LruPolicy(std::size_t sets, std::uint32_t ways)
    : ways_(checked_mask_ways(ways)),
      sets_(sets),
      // Every way starts "oldest-looking" (the seed's stamp 0) and
      // unlinked; the recency lists start empty.
      zero_(sets, low_mask(ways)),
      heads_(sets, kNil),
      tails_(sets, kNil),
      prev_(sets * ways, kNil),
      next_(sets * ways, kNil) {}

std::vector<std::uint64_t> LruPolicy::snapshot() const {
  std::vector<std::uint64_t> s(sets_ * ways_, 0);
  for (std::size_t set = 0; set < sets_; ++set) {
    std::uint64_t rank = 1;
    for (std::uint8_t w = heads_[set]; w != kNil; w = next_[set * ways_ + w]) {
      s[set * ways_ + w] = rank++;
    }
  }
  return s;
}

}  // namespace pipo
