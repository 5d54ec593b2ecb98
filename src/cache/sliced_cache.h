// Physically distributed (sliced) shared LLC, per Fig 2 of the paper:
// "The shared L3 cache is physically distributed as slices". Lines are
// interleaved across slices by a configurable SliceHashKind — the low
// line-address bits (historical default) or Intel complex addressing
// (cache/slice_hash.h) — the slice count must be a power of two, and
// each slice is an independent CacheArray holding an equal share of the
// capacity.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cache/cache_array.h"
#include "cache/slice_hash.h"
#include "common/bitutil.h"

namespace pipo {

class SlicedCache {
 public:
  /// `total` describes the aggregate LLC (e.g. 4 MB / 16-way / 35 cycles);
  /// each of the `num_slices` slices gets total.size_bytes / num_slices.
  SlicedCache(const CacheConfig& total, std::uint32_t num_slices,
              SliceHashKind hash = SliceHashKind::kLowBits)
      : num_slices_(num_slices), hash_(hash) {
    if (!is_pow2(num_slices) || num_slices == 0) {
      throw std::invalid_argument("LLC slice count must be a power of two");
    }
    if (total.size_bytes % num_slices != 0) {
      throw std::invalid_argument("LLC size must divide evenly into slices");
    }
    if (hash == SliceHashKind::kIntelCas &&
        num_slices > kMaxIntelCasSlices) {
      throw std::invalid_argument(
          "intel-cas slice hash supports at most 8 slices");
    }
    // Low-bits interleave consumes the low line bits for slice
    // selection, so each slice skips them when indexing sets. Complex
    // addressing draws its slice bits from high address bits instead;
    // the low line bits stay available as set index bits.
    const unsigned slice_bits = hash == SliceHashKind::kLowBits
                                    ? log2_exact(num_slices)
                                    : 0;
    CacheConfig per_slice = total;
    per_slice.size_bytes = total.size_bytes / num_slices;
    per_slice.name = total.name + ".slice";
    slices_.reserve(num_slices);
    for (std::uint32_t i = 0; i < num_slices; ++i) {
      slices_.emplace_back(per_slice, slice_bits);
    }
  }

  std::uint32_t num_slices() const { return num_slices_; }
  SliceHashKind hash_kind() const { return hash_; }

  std::uint32_t slice_of(LineAddr line) const {
    return slice_hash(hash_, line, num_slices_);
  }

  CacheArray& slice(std::uint32_t i) { return slices_[i]; }
  const CacheArray& slice(std::uint32_t i) const { return slices_[i]; }
  CacheArray& slice_for(LineAddr line) { return slices_[slice_of(line)]; }
  const CacheArray& slice_for(LineAddr line) const {
    return slices_[slice_of(line)];
  }

  // Convenience pass-throughs routing by address.
  std::optional<CacheSlot> lookup(LineAddr line) const {
    return slice_for(line).lookup(line);
  }
  CacheLine& line_for(LineAddr line, const CacheSlot& slot) {
    return slice_for(line).line(slot);
  }
  CacheArray::FillResult fill(LineAddr line,
                              VictimChooser* chooser = nullptr) {
    return slice_for(line).fill(line, chooser);
  }
  std::optional<EvictedLine> invalidate(LineAddr line) {
    return slice_for(line).invalidate(line);
  }

  std::uint64_t valid_count() const {
    std::uint64_t n = 0;
    for (const auto& s : slices_) n += s.valid_count();
    return n;
  }

  /// Set scans across all slices (CacheArray::probes).
  std::uint64_t probes() const {
    std::uint64_t n = 0;
    for (const auto& s : slices_) n += s.probes();
    return n;
  }

  /// Full-tag compares across all slices (CacheArray::tag_compares).
  std::uint64_t tag_compares() const {
    std::uint64_t n = 0;
    for (const auto& s : slices_) n += s.tag_compares();
    return n;
  }

  void clear() {
    for (auto& s : slices_) s.clear();
  }

 private:
  std::uint32_t num_slices_;
  SliceHashKind hash_ = SliceHashKind::kLowBits;
  std::vector<CacheArray> slices_;
};

}  // namespace pipo
