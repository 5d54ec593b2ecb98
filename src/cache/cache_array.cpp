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

constexpr std::uint64_t kByteOnes = 0x0101010101010101ull;
constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;

/// One bit per byte of `x` that is zero, bit i for byte i. The zero-byte
/// test is exact: no carry crosses a byte, so a nonzero byte never marks
/// its neighbour.
std::uint32_t zero_bytes(std::uint64_t x) {
  const std::uint64_t high = ~(((x & kLow7) + kLow7) | x | kLow7);
  // Gather byte i's high bit (bit 8i + 7) into bit 56 + i.
  return static_cast<std::uint32_t>(((high >> 7) * 0x0102040810204080ull) >>
                                    56);
}

}  // namespace

CacheArray::CacheArray(const CacheConfig& cfg, unsigned index_shift)
    : cfg_(validated(cfg)),
      index_shift_(index_shift),
      sets_(cfg_.num_sets()),
      set_mask_(sets_ - 1),
      fp_words_(static_cast<std::uint32_t>(ceil_div(cfg_.ways, 8))),
      ways_(sets_ * cfg_.ways),
      fps_(sets_ * fp_words_, 0),
      occ_(sets_, 0),
      repl_(sets_, cfg_.ways) {}

CacheProbe CacheArray::probe(LineAddr line) const {
  ++probes_;
  const std::size_t set = set_of(line);
  const std::uint64_t occ = occ_[set];
  const std::uint64_t* fps = &fps_[set * fp_words_];
  const CacheWay* ways = &ways_[set * cfg_.ways];
  const std::uint64_t want = kByteOnes * fingerprint(line);
  for (std::uint32_t k = 0; k < fp_words_; ++k) {
    // Occupied ways 8k..8k+7 whose fingerprint matches, in way order.
    std::uint64_t match = zero_bytes(fps[k] ^ want) & (occ >> (8 * k));
    while (match != 0) {
      const std::uint32_t w =
          8 * k + static_cast<std::uint32_t>(std::countr_zero(match));
      ++tag_compares_;
      if (ways[w].tag == line) return CacheProbe{set, w, true, fills_};
      match &= match - 1;
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
  FillResult r;
  r.slot = CacheSlot{
      set, static_cast<std::uint32_t>(std::countr_one(occ_[set]))};
  if (r.slot.way >= cfg_.ways) {
    std::optional<std::uint32_t> override_way;
    if (chooser) {
      override_way = chooser->choose(&ways_[set * cfg_.ways], cfg_.ways);
      assert(!override_way || *override_way < cfg_.ways);
    }
    r.slot.way = override_way ? *override_way : repl_.victim(set);
    write_evicted(r.slot, r.evicted.emplace());
  }

  const std::uint32_t way = r.slot.way;
  ways_[index(r.slot)] = CacheWay{line_addr, CacheLine{}};
  std::uint64_t& fp_word = fps_[set * fp_words_ + way / 8];
  const unsigned lane = 8 * (way % 8);
  fp_word = (fp_word & ~(std::uint64_t{0xFF} << lane)) |
            (std::uint64_t{fingerprint(line_addr)} << lane);
  occ_[set] |= std::uint64_t{1} << way;
  repl_.on_fill(set, way);
  return r;
}

EvictedLine CacheArray::invalidate(const CacheSlot& slot) {
  EvictedLine out;
  write_evicted(slot, out);
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
  for (CacheWay& w : ways_) w.line = CacheLine{};
  for (std::uint64_t& o : occ_) o = 0;
}

void CacheArray::write_evicted(const CacheSlot& slot,
                               EvictedLine& out) const {
  assert(occupied(slot));
  const CacheLine& l = line(slot);
  out.line = tag(slot);
  out.state = l.state;
  out.dirty = l.dirty;
  out.inner = l.inner;
  out.outer_way = l.outer_way;
  out.presence = l.presence;
  out.pp_tag = l.pp_tag;
  out.pp_accessed = l.pp_accessed;
  out.ever_written = l.ever_written;
}

}  // namespace pipo
