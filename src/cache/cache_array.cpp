#include "cache/cache_array.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace pipo {

namespace {

/// Runs from the first member initializer, so a bad geometry throws
/// before num_sets() divides by the way count.
const CacheConfig& validated(const CacheConfig& cfg) {
  cfg.validate();
  if (cfg.ways > 64) {
    throw std::invalid_argument(
        "CacheArray: the packed occupancy mask supports at most 64 ways");
  }
  return cfg;
}

}  // namespace

CacheArray::CacheArray(const CacheConfig& cfg, unsigned index_shift)
    : cfg_(validated(cfg)),
      index_shift_(index_shift),
      sets_(cfg_.num_sets()),
      set_mask_(sets_ - 1),
      lines_(sets_ * cfg_.ways),
      tags_(sets_ * cfg_.ways, 0),
      occ_(sets_, 0),
      repl_(sets_, cfg_.ways) {}

CacheProbe CacheArray::probe(LineAddr line) const {
  ++probes_;
  const std::size_t set = set_of(line);
  const std::uint64_t occ = occ_[set];
  const LineAddr* tags = &tags_[set * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (((occ >> w) & 1u) && tags[w] == line) {
      return CacheProbe{set, w, true, fills_};
    }
  }
  return CacheProbe{set, 0, false, fills_};
}

CacheArray::FillResult CacheArray::fill(LineAddr line_addr,
                                        const CacheProbe& miss,
                                        VictimChooser* chooser) {
  assert(!miss.hit && miss.set == set_of(line_addr) &&
         miss.fills == fills_ &&
         "fill() needs a miss probe of the line's set since the last fill");
  const std::size_t set = miss.set;
  ++fills_;

  // Prefer a free way: first zero bit of the occupancy mask.
  std::uint32_t way = static_cast<std::uint32_t>(std::countr_one(occ_[set]));
  std::optional<EvictedLine> evicted;
  if (way >= cfg_.ways) {
    std::optional<std::uint32_t> override_way;
    if (chooser) {
      override_way = chooser->choose(&lines_[set * cfg_.ways], cfg_.ways);
      assert(!override_way || *override_way < cfg_.ways);
    }
    way = override_way ? *override_way : repl_.victim(set);
    evicted = snapshot(CacheSlot{set, way});
  }

  const CacheSlot slot{set, way};
  lines_[index(slot)] = CacheLine{};
  tags_[index(slot)] = line_addr;
  occ_[set] |= std::uint64_t{1} << way;
  repl_.on_fill(set, way);
  return FillResult{slot, evicted};
}

EvictedLine CacheArray::invalidate(const CacheSlot& slot) {
  EvictedLine out = snapshot(slot);
  line(slot) = CacheLine{};
  occ_[slot.set] &= ~(std::uint64_t{1} << slot.way);
  repl_.on_invalidate(slot.set, slot.way);
  return out;
}

std::optional<EvictedLine> CacheArray::invalidate(LineAddr line_addr) {
  const CacheProbe p = probe(line_addr);
  if (!p.hit) return std::nullopt;
  return invalidate(p.slot());
}

std::uint32_t CacheArray::valid_in_set(std::size_t set) const {
  return static_cast<std::uint32_t>(std::popcount(occ_[set]));
}

std::uint64_t CacheArray::valid_count() const {
  std::uint64_t n = 0;
  for (const std::uint64_t o : occ_) n += std::popcount(o);
  return n;
}

void CacheArray::clear() {
  for (CacheLine& l : lines_) l = CacheLine{};
  for (std::uint64_t& o : occ_) o = 0;
}

EvictedLine CacheArray::snapshot(const CacheSlot& slot) const {
  assert(occupied(slot));
  const CacheLine& l = line(slot);
  return EvictedLine{.line = tag(slot),
                     .state = l.state,
                     .dirty = l.dirty,
                     .inner = l.inner,
                     .outer_way = l.outer_way,
                     .presence = l.presence,
                     .pp_tag = l.pp_tag,
                     .pp_accessed = l.pp_accessed,
                     .ever_written = l.ever_written};
}

}  // namespace pipo
