// Passive set-associative tag array with per-line coherence and
// PiPoMonitor metadata. The active protocol logic (hierarchy walks,
// inclusive back-invalidation, directory updates, pEvict notifications)
// lives in sim/system.*; this class only manages placement, lookup and
// victim selection within one array.
//
// One CacheArray models a private L1/L2 or a single LLC slice. Set
// indexing is `(line >> index_shift) & (sets-1)`, so an LLC slice passes
// index_shift = log2(num_slices) to skip the slice-selection bits.
//
// Each (set, way) is one 16-byte record on the host, a CacheWay: the
// full line address the way holds (hardware would store only the bits
// above the index) beside that line's protocol metadata, a CacheLine.
// So a hit's tag compare and its metadata share a host cache line.
// Occupancy and fingerprints stay per-set rows: one 64-bit occupancy
// word and one fingerprint row per set, which a probe reads first.
//
// A set scan first compares an 8-bit fingerprint per way, eight ways per
// 64-bit word, and reads the full tag only of the occupied ways whose
// fingerprint matches, much as the paper's Auto-Cuckoo filter compares
// short fingerprints within a bucket. Every match is confirmed against
// the full tag, so a fingerprint can never cause a false hit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache_config.h"
#include "cache/mesi.h"
#include "cache/replacement.h"
#include "common/bitutil.h"
#include "common/types.h"

namespace pipo {

/// Protocol metadata of one cached line. Which line a way holds, and
/// whether it holds one, is CacheArray's tag() and occupied().
struct CacheLine {
  std::uint32_t presence = 0;   ///< LLC: bitmask of cores holding the line
  Mesi state = Mesi::kInvalid;  ///< private caches: MESI state of this copy
  bool dirty : 1 = false;       ///< LLC: line newer than memory
  // --- PiPoMonitor per-line tag bits (only used at the LLC) ---
  bool pp_tag : 1 = false;       ///< captured as a Ping-Pong line (Section IV)
  bool pp_accessed : 1 = false;  ///< demanded since the tag/prefetch was set
  /// LLC: the line has ever been written while resident. RIC's relaxed
  /// inclusion exempts never-written (read-only-in-practice) lines from
  /// back-invalidation.
  bool ever_written : 1 = false;
  // --- private-hierarchy residency: the L2 is each core's directory ---
  /// L2: which of the core's L1s hold the line (kInnerL1i | kInnerL1d).
  std::uint8_t inner = 0;
  /// The way of this line's copy one level out; its set (and slice)
  /// follow from the address. L1: the copy's way in the core's L2,
  /// always exact. L2: the LLC way, a hint the reader checks before use
  /// (System::handle_l2_eviction). It is exact under an inclusive LLC
  /// without RIC, can go stale when RIC orphans the line, and is unused
  /// under the exclusive LLC.
  std::uint8_t outer_way = 0;
};

/// CacheLine::inner bits.
inline constexpr std::uint8_t kInnerL1i = 1u << 0;
inline constexpr std::uint8_t kInnerL1d = 1u << 1;

/// One simulated way's host record: the line address it holds, beside
/// that line's metadata. Meaningful only while the way is occupied.
struct CacheWay {
  LineAddr tag = 0;
  CacheLine line;
};

// Every simulated way costs a record on the host: keep it small.
static_assert(sizeof(CacheWay) == 16);

/// Identifies a resident line.
struct CacheSlot {
  std::size_t set = 0;
  std::uint32_t way = 0;
};

/// One scan of a line's set (CacheArray::probe).
struct CacheProbe {
  std::size_t set = 0;
  std::uint32_t way = 0;  ///< the hit way; meaningless on a miss
  bool hit = false;
  std::uint64_t fills = 0;  ///< the array's fill count at probe time

  CacheSlot slot() const { return CacheSlot{set, way}; }
};

/// Pluggable victim-selection override (e.g. SHARP's hierarchy-aware
/// policy). `choose` sees one set's way records and returns the way to
/// victimize, or nullopt to defer to the array's LRU victim.
/// Precondition: the set is full. CacheArray::fill asks only when no way
/// is free, so every way of `set` holds a line.
class VictimChooser {
 public:
  virtual ~VictimChooser() = default;
  virtual std::optional<std::uint32_t> choose(const CacheWay* set,
                                              std::uint32_t ways) = 0;
};

/// Snapshot of a line leaving the array (eviction or invalidation).
struct EvictedLine {
  LineAddr line = 0;
  Mesi state = Mesi::kInvalid;
  bool dirty = false;
  std::uint8_t inner = 0;      ///< L2 victim: the L1s that held it
  /// CacheLine::outer_way: an L1 victim's L2 way, an L2 victim's LLC
  /// way hint.
  std::uint8_t outer_way = 0;
  std::uint32_t presence = 0;
  bool pp_tag = false;
  bool pp_accessed = false;
  bool ever_written = false;
};

static_assert(sizeof(EvictedLine) <= 24);

class CacheArray {
 public:
  /// Throws std::invalid_argument for an invalid geometry or more than
  /// 64 ways, before any storage is sized.
  explicit CacheArray(const CacheConfig& cfg, unsigned index_shift = 0);

  const CacheConfig& config() const { return cfg_; }
  std::size_t num_sets() const { return sets_; }
  std::uint32_t ways() const { return cfg_.ways; }
  unsigned index_shift() const { return index_shift_; }

  std::size_t set_of(LineAddr line) const {
    return static_cast<std::size_t>((line >> index_shift_) & set_mask_);
  }

  /// Scans the line's set once, without updating replacement state.
  /// Every scan of the array is a probe, and each one is counted.
  CacheProbe probe(LineAddr line) const;

  /// The 8-bit summary of `line` that probe() compares before any tag:
  /// the top byte of a multiplicative hash, so lines that differ only
  /// far above the set index (the cores' disjoint bases) still differ
  /// in it.
  static std::uint8_t fingerprint(LineAddr line) {
    return static_cast<std::uint8_t>((line * 0x9E3779B97F4A7C15ull) >> 56);
  }

  /// probe() for callers that need only the hit slot.
  std::optional<CacheSlot> lookup(LineAddr line) const {
    const CacheProbe p = probe(line);
    if (!p.hit) return std::nullopt;
    return p.slot();
  }

  /// Replacement-policy update on a hit.
  void touch(const CacheSlot& slot) { repl_.on_access(slot.set, slot.way); }

  CacheLine& line(const CacheSlot& slot) { return ways_[index(slot)].line; }
  const CacheLine& line(const CacheSlot& slot) const {
    return ways_[index(slot)].line;
  }

  /// Whether the way at `slot` holds a line.
  bool occupied(const CacheSlot& slot) const {
    return (occ_[slot.set] >> slot.way) & 1u;
  }
  /// The line address the way at `slot` holds; meaningful only while
  /// occupied(slot).
  LineAddr tag(const CacheSlot& slot) const { return ways_[index(slot)].tag; }

  /// Result of inserting a line: where it landed and what fell out.
  struct FillResult {
    CacheSlot slot;
    std::optional<EvictedLine> evicted;
  };

  /// Inserts `line_addr` into the set `miss` scanned, preferring a free
  /// way, otherwise evicting the LRU victim. A non-null `chooser`
  /// overrides victim selection (SHARP). The caller initializes the
  /// returned line's state.
  /// Precondition: the line is not already resident (double-fill is a
  /// protocol bug). The miss probe is that check: it must be a miss for
  /// the line's set, taken since the array's last fill. Only fill makes
  /// a line resident, so an unchanged fill count proves the line is
  /// still absent. Asserted in every build that compiles asserts.
  FillResult fill(LineAddr line_addr, const CacheProbe& miss,
                  VictimChooser* chooser = nullptr);

  /// fill() for callers holding no probe: probes first.
  FillResult fill(LineAddr line_addr, VictimChooser* chooser = nullptr) {
    return fill(line_addr, probe(line_addr), chooser);
  }

  /// Removes the resident line at `slot`, returning its final metadata.
  EvictedLine invalidate(const CacheSlot& slot);

  /// Removes the line if present, returning its final metadata.
  std::optional<EvictedLine> invalidate(LineAddr line_addr);

  /// Set scans (probe() calls) since construction: a deterministic
  /// count of the array's lookup work.
  std::uint64_t probes() const { return probes_; }

  /// Full-tag compares since construction: one per way whose occupied
  /// fingerprint matched during a probe. Deterministic, like probes().
  std::uint64_t tag_compares() const { return tag_compares_; }

  /// Number of valid lines in `set` (attack-analysis helper).
  std::uint32_t valid_in_set(std::size_t set) const;

  /// Total valid lines, a popcount over every set's occupancy word
  /// (O(sets); no simulated path calls it).
  std::uint64_t valid_count() const;

  void clear();

 private:
  std::size_t index(const CacheSlot& slot) const {
    return slot.set * cfg_.ways + slot.way;
  }
  /// Writes the final metadata of the resident line at `slot` into
  /// `out`, in place: callers aim it at the storage they return.
  void write_evicted(const CacheSlot& slot, EvictedLine& out) const;

  CacheConfig cfg_;
  unsigned index_shift_;
  std::size_t sets_;
  std::uint64_t set_mask_;
  std::uint32_t fp_words_;  ///< 64-bit fingerprint words per set
  // probe() and the free-way scan in fill() read one 64-bit occupancy
  // word and one fingerprint row per set, and only the matching ways'
  // records. Only fill writes a tag or a fingerprint; invalidate and
  // clear reset the CacheLine and the occupancy bit. A free way's tag
  // and fingerprint are stale, and the occupancy word keeps probe()
  // from reading them.
  std::vector<CacheWay> ways_;  ///< per-(set,way) record
  /// Per-set row of fp_words_ words, byte w % 8 of word w / 8 holding
  /// way w's fingerprint(); the padding past the last way stays zero.
  std::vector<std::uint64_t> fps_;
  std::vector<std::uint64_t> occ_;   ///< per-set occupancy mask (ways <= 64)
  std::uint64_t fills_ = 0;
  mutable std::uint64_t probes_ = 0;
  mutable std::uint64_t tag_compares_ = 0;
  LruPolicy repl_;
};

}  // namespace pipo
