// Passive set-associative tag array with per-line coherence and
// PiPoMonitor metadata. The active protocol logic (hierarchy walks,
// inclusive back-invalidation, directory updates, pEvict notifications)
// lives in sim/system.*; this class only manages placement, lookup and
// victim selection within one array.
//
// One CacheArray models a private L1/L2 or a single LLC slice. Set
// indexing is `(line >> index_shift) & (sets-1)`, so an LLC slice passes
// index_shift = log2(num_slices) to skip the slice-selection bits. Lines
// store their full line address (the model's equivalent of the tag field;
// hardware would store only the bits above the index).
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

/// Metadata of one cached line.
struct CacheLine {
  bool valid = false;
  LineAddr addr = 0;            ///< full line address (models the tag)
  Mesi state = Mesi::kInvalid;  ///< private caches: MESI state of this copy
  bool dirty = false;           ///< LLC: line newer than memory
  std::uint32_t presence = 0;   ///< LLC: bitmask of cores holding the line
  // --- PiPoMonitor per-line tag bits (only used at the LLC) ---
  bool pp_tag = false;       ///< captured as a Ping-Pong line (Section IV)
  bool pp_accessed = false;  ///< demanded since the tag/prefetch was set
  /// LLC: the line has ever been written while resident. RIC's relaxed
  /// inclusion exempts never-written (read-only-in-practice) lines from
  /// back-invalidation.
  bool ever_written = false;
};

/// Identifies a resident line.
struct CacheSlot {
  std::size_t set = 0;
  std::uint32_t way = 0;
};

/// Pluggable victim-selection override (e.g. SHARP's hierarchy-aware
/// policy). `choose` sees one set's lines and returns the way to victimize
/// (an invalid way means a free fill), or nullopt to defer to the array's
/// LRU victim.
class VictimChooser {
 public:
  virtual ~VictimChooser() = default;
  virtual std::optional<std::uint32_t> choose(const CacheLine* set,
                                              std::uint32_t ways) = 0;
};

/// Snapshot of a line leaving the array (eviction or invalidation).
struct EvictedLine {
  LineAddr line = 0;
  Mesi state = Mesi::kInvalid;
  bool dirty = false;
  std::uint32_t presence = 0;
  bool pp_tag = false;
  bool pp_accessed = false;
  bool ever_written = false;
};

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

  /// Finds the line without updating replacement state.
  std::optional<CacheSlot> lookup(LineAddr line) const;

  /// Replacement-policy update on a hit.
  void touch(const CacheSlot& slot) { repl_.on_access(slot.set, slot.way); }

  CacheLine& line(const CacheSlot& slot) {
    return lines_[slot.set * cfg_.ways + slot.way];
  }
  const CacheLine& line(const CacheSlot& slot) const {
    return lines_[slot.set * cfg_.ways + slot.way];
  }

  /// Result of inserting a line: where it landed and what fell out.
  struct FillResult {
    CacheSlot slot;
    std::optional<EvictedLine> evicted;
  };

  /// Inserts `line_addr`, preferring a free way, otherwise evicting the
  /// LRU victim. A non-null `chooser` overrides victim selection
  /// (SHARP). The caller initializes the returned line's state.
  /// Precondition: the line is not already resident (double-fill is a
  /// protocol bug and asserts in debug builds).
  FillResult fill(LineAddr line_addr, VictimChooser* chooser = nullptr);

  /// Removes the line if present, returning its final metadata.
  std::optional<EvictedLine> invalidate(LineAddr line_addr);

  /// Number of valid lines in `set` (attack-analysis helper).
  std::uint32_t valid_in_set(std::size_t set) const;

  /// Total valid lines. O(1): maintained incrementally by fill /
  /// invalidate / clear.
  std::uint64_t valid_count() const { return valid_count_; }

  /// Audits the packed tag/occupancy mirror against the CacheLine
  /// records (the mirror is only maintained by fill / invalidate /
  /// clear — a writer mutating `valid`/`addr` through line() would
  /// desynchronize it). Returns a description of the first mismatch, or
  /// an empty string. Wired into System::check_invariants().
  std::string check_mirror() const;

  void clear();

 private:
  static EvictedLine snapshot(const CacheLine& l);

  CacheConfig cfg_;
  unsigned index_shift_;
  std::size_t sets_;
  std::uint64_t set_mask_;
  std::vector<CacheLine> lines_;
  // Structure-of-arrays mirror of the placement state. lookup() and the
  // free-way scan in fill() touch only these packed vectors — one
  // 64-bit occupancy word per set plus a contiguous tag row — instead of
  // striding through the full CacheLine records. The CacheLine valid /
  // addr fields stay authoritative for readers (VictimChooser, line());
  // only fill / invalidate / clear mutate them, and they keep the mirror
  // in sync.
  std::vector<LineAddr> tags_;       ///< per-(set,way) line address
  std::vector<std::uint64_t> occ_;   ///< per-set valid bitmask (ways <= 64)
  std::uint64_t valid_count_ = 0;
  LruPolicy repl_;
};

}  // namespace pipo
