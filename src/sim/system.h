// The simulated machine: four cores' private L1I/L1D/L2 caches, a shared
// sliced inclusive L3 with an in-LLC directory (MESI), the memory
// controller and the PiPoMonitor — the architecture of Fig 2, with the
// Table II latencies.
//
// Timing model. Accesses are resolved functionally at issue time with
// full latency accounting (the level that serves the access determines
// the latency; LLC misses add DRAM latency and channel queueing). This is
// the "atomic with timing feedback" style of simulation: cross-core
// interleaving is still cycle-accurate at access granularity because the
// event-driven cores issue their next access only after the previous one
// completes. PiPoMonitor prefetches are the one genuinely asynchronous
// action, so they are modeled as scheduled events: pEvict -> delay ->
// fetch -> DRAM latency -> LLC fill, drained at every subsequent access
// and by the driver's uncore tick, which next_drain_tick() lets skip the
// boundaries at which a drain would find nothing due.
//
// Coherence model. Private L1/L2 lines carry MESI states. Under the
// default InclusionPolicy::kInclusive the L3 acts as the directory via
// per-line presence bit-vectors. Protocol actions implemented:
//   * read miss served by L3 while another core holds M/E: owner
//     downgraded to S, LLC marked dirty (data merged).
//   * write to an S line: directory upgrade, all other sharers
//     invalidated (charged one LLC round-trip).
//   * L2 eviction: back-invalidates the L1 copies its residency bits
//     name (L2 is inclusive of L1), clears the directory presence bit,
//     merges dirty data into the LLC.
//   * L3 eviction: back-invalidates EVERY private copy (the inclusive-LLC
//     property cross-core attacks exploit), writes back dirty data, and —
//     when the line is Ping-Pong-tagged and was accessed — sends pEvict
//     to the PiPoMonitor.
//
// Under InclusionPolicy::kExclusive the LLC is a victim cache: a line
// lives in private caches OR the LLC, never both. Cross-core sharing is
// resolved by snooping the other cores' arrays (cache-to-cache transfer
// at LLC latency), an LLC hit moves the line back into the requester's
// private caches, and an L2 eviction victim-fills the LLC only when it
// was the hierarchy's last copy. There is no presence directory and no
// back-invalidation channel — the attack surface the inclusive golden
// matrix measures simply does not exist here.
//
// Each core's L2 is that core's directory: an L2 line's
// CacheLine::inner bits name the L1s holding it, and an L1 line's
// outer_way names its L2 copy's way. Every per-core coherence action
// probes the L2 once and visits only the L1s its bits name. An L2
// line's outer_way in turn names the way of its inclusive LLC copy, so
// an L2 eviction clears its presence bit without scanning the LLC set.
// That one is a hint, checked before use: RIC can orphan the line and
// refill its LLC copy elsewhere, and then the eviction scans the set.
//
// The active defense attaches at cfg.monitor_level: it observes misses
// at that level, tags that level's fills, and receives pEvict when a
// tagged line is involuntarily removed from that level (capacity
// eviction, back-invalidation or coherence invalidation). Its
// restorative prefetches always land in the LLC.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache_array.h"
#include "cache/sliced_cache.h"
#include "defense/bitp.h"
#include "defense/directory_monitor.h"
#include "defense/sharp.h"
#include "filter/observer.h"
#include "mem/mem_controller.h"
#include "pipo/monitor_iface.h"
#include "pipo/pipo_monitor.h"
#include "sim/system_config.h"

namespace pipo {

/// Which level served an access (for attack classification and tests).
enum class HitLevel : std::uint8_t { kL1, kL2, kL3, kMemory };

const char* to_string(HitLevel l);

/// The System::Stats counters, in declaration order: the one field list
/// the struct, dump(), operator+= and the fuzzer's coverage signature
/// are generated from. X(name) once per counter.
#define PIPO_SYSTEM_STATS(X)                                               \
  X(accesses)                                                              \
  X(l1_hits)                                                               \
  X(l2_hits)                                                               \
  X(l3_hits)                                                               \
  X(l3_misses)                                                             \
  X(back_invalidations)      /* private copies killed by L3 evictions */   \
  X(upgrades)                /* S->M directory transactions */             \
  X(invalidations_for_write)                                               \
  X(l2_evictions)                                                          \
  X(writebacks)              /* dirty L3 evictions to memory */            \
  X(prefetch_fills)          /* monitor prefetches landing in L3 */        \
  X(prefetch_drops)          /* prefetch found line already present */    \
  X(pp_tag_fills)            /* demand fills tagged Ping-Pong */           \
  X(pevicts)                 /* pEvict messages sent to the monitor */     \
  X(ric_exemptions)          /* back-invalidations skipped by RIC */

class System {
 public:
  explicit System(const SystemConfig& cfg,
                  FilterObserver* filter_observer = nullptr);

  struct AccessOutcome {
    Tick complete = 0;          ///< tick at which the access finishes
    std::uint32_t latency = 0;  ///< complete - issue
    HitLevel level = HitLevel::kL1;
  };

  /// Performs one memory access for `core` at tick `now`. With
  /// `bypass_private` the access skips the core's L1/L2 and goes straight
  /// to the LLC (attacker probe pattern, see MemRequest::bypass_private):
  /// it touches LLC replacement state, fills the LLC on a miss, but never
  /// installs a private copy or sets the requester's presence bit.
  AccessOutcome access(Tick now, CoreId core, Addr addr, AccessType type,
                       bool bypass_private = false);

  /// Applies every due prefetch of the active monitor (delay elapsed,
  /// popped from the monitor's FIFO in place, and DRAM data arrived).
  /// Called internally by access(); the simulation
  /// driver's uncore tick also calls it so prefetches land on time even
  /// while all cores are idle.
  void drain_prefetches(Tick now);

  /// Earliest tick at which drain_prefetches() has work: the active
  /// monitor's front pending prefetch or the front in-flight fill,
  /// whichever is earlier, or kNeverTick when neither is pending. A
  /// drain at any earlier tick changes nothing.
  Tick next_drain_tick() const;

  // --- component access (attack construction, tests, benches) ---
  const SystemConfig& config() const { return cfg_; }
  SlicedCache& l3() { return *l3_; }
  const SlicedCache& l3() const { return *l3_; }
  CacheArray& l2(CoreId c) { return *l2_[c]; }
  CacheArray& l1d(CoreId c) { return *l1d_[c]; }
  CacheArray& l1i(CoreId c) { return *l1i_[c]; }
  /// The PiPoMonitor. It always exists, but only under kPiPoMonitor is
  /// it enabled; under every other defense it is disabled and inert, and
  /// its counters read 0 (read active_monitor() for the defense's own).
  PiPoMonitor& monitor() { return *pipo_monitor_; }
  const PiPoMonitor& monitor() const { return *pipo_monitor_; }
  /// The active defense's monitor-side engine: the DirectoryMonitor or
  /// BITP under their kinds, otherwise the PiPoMonitor (disabled under
  /// kNone, kSharp and kRic, which act purely on the cache side).
  MonitorIface& active_monitor() { return *active_monitor_; }
  const MonitorIface& active_monitor() const { return *active_monitor_; }
  /// Valid when the active defense is kDirectoryMonitor.
  DirectoryMonitor& directory_monitor() { return *dir_monitor_; }
  /// Valid when the active defense is kSharp.
  const SharpChooser& sharp() const { return *sharp_; }
  MemController& mem() { return *mem_; }

  /// Latency above which an access cannot have been an LLC hit; the
  /// Prime+Probe attacker uses this as its classification threshold.
  std::uint32_t llc_miss_threshold() const {
    return cfg_.l3.latency + cfg_.mem.dram_latency / 2;
  }

  /// Aggregate event counters (fields: PIPO_SYSTEM_STATS).
  struct Stats {
#define PIPO_STATS_FIELD(name) std::uint64_t name = 0;
    PIPO_SYSTEM_STATS(PIPO_STATS_FIELD)
#undef PIPO_STATS_FIELD
#define PIPO_STATS_COUNT(name) +1
    static constexpr std::size_t kCounters =
        0 PIPO_SYSTEM_STATS(PIPO_STATS_COUNT);
#undef PIPO_STATS_COUNT

    /// One "name value" line per counter, each name left-justified to
    /// 21 columns and followed by one space.
    void dump(std::ostream& os) const;
    /// Field-wise sum, for callers that total the counters of several
    /// runs or Systems.
    Stats& operator+=(const Stats& o);
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Set scans across every cache array (CacheArray::probes): a
  /// deterministic work count, deliberately not one of the Stats.
  std::uint64_t probes() const;
  /// Full-tag compares across every cache array
  /// (CacheArray::tag_compares), kept out of the Stats like probes().
  std::uint64_t tag_compares() const;

  /// Structural-invariant audit (test/diagnostic hook). Walks every
  /// array's occupied ways, reading which line each holds from the
  /// array's placement record (CacheArray::occupied and tag, the only
  /// copy), and returns a description of the first violation found, or
  /// an empty string when the machine state is consistent:
  ///  * inclusion — every private L1/L2 line is present in the L3
  ///    (except under RIC, whose relaxed inclusion permits clean
  ///    orphans), and every L1 line is present in its core's L2;
  ///  * residency — every L1 line's outer_way names its L2 copy's way,
  ///    every L2 line's inner bits name exactly the L1s holding it, and,
  ///    under an inclusive LLC without RIC, every L2 line's outer_way
  ///    names the LLC way holding its copy;
  ///  * single writer — at most one core holds a line in M or E, and no
  ///    other core holds any copy of an M/E line;
  ///  * directory — the L3 presence bit of every privately held line's
  ///    core is set (again modulo RIC orphans);
  ///  * exclusion — under an exclusive LLC, no privately held line is
  ///    also in the LLC, and no LLC line carries presence bits.
  std::string check_invariants() const;

 private:
  static std::uint32_t bit(CoreId c) { return 1u << c; }

  bool exclusive() const {
    return cfg_.inclusion == InclusionPolicy::kExclusive;
  }

  /// Fills `line` into its LLC slice, consuming that slice's miss
  /// probe, and returns where it landed in the slice.
  CacheSlot fill_l3(Tick now, const CacheProbe& miss, LineAddr line,
                    bool pp_tagged, bool from_prefetch, CoreId requester);
  /// `demand_caused`: the eviction was triggered by a demand fill rather
  /// than a monitor prefetch fill (forwarded in the pEvict message).
  void handle_l3_eviction(Tick now, const EvictedLine& ev,
                          bool demand_caused);
  void handle_l2_eviction(Tick now, CoreId core, const EvictedLine& ev);
  /// Where fill_private left the line.
  struct PrivateSlots {
    CacheSlot l2;
    CacheSlot l1;
  };
  /// Fills `line` into `core`'s L2 unless `l2_probe` hit, then into
  /// `l1` (whose CacheLine::inner bit is `l1_bit`), consuming both
  /// probes and keeping the residency records. A fresh L2 line's
  /// outer_way is `llc_way`, its inclusive LLC copy's way.
  PrivateSlots fill_private(Tick now, CoreId core, CacheArray& l1,
                            std::uint8_t l1_bit, const CacheProbe& l1_miss,
                            const CacheProbe& l2_probe, LineAddr line,
                            Mesi state, std::uint32_t llc_way);
  /// One of a core's L1s and its CacheLine::inner bit.
  struct InnerL1 {
    CacheArray* array;
    std::uint8_t bit;
  };
  /// `core`'s L1s in the order every walk visits them: L1I, then L1D.
  std::array<InnerL1, 2> inner_l1s(CoreId core) const {
    return {{{l1i_[core].get(), kInnerL1i}, {l1d_[core].get(), kInnerL1d}}};
  }
  /// The L2 copy of one of `core`'s L1 lines, through its outer_way.
  CacheLine& l2_copy(CoreId core, LineAddr line, std::uint8_t outer_way);
  /// Invalidates the copies of `line` in the L1s `inner` names, L1I
  /// before L1D; true if one was M.
  bool invalidate_inner(Tick now, CoreId core, LineAddr line,
                        std::uint8_t inner);
  /// Invalidates the line in `core`'s L1s and L2; true if a copy was M.
  bool invalidate_private(Tick now, CoreId core, LineAddr line);
  /// The same, for a line the caller found at `l2slot` in the core's L2.
  bool invalidate_private(Tick now, CoreId core, LineAddr line,
                          const CacheSlot& l2slot);
  /// Downgrades `core`'s copies of `line`, found at `l2slot` in its L2,
  /// to S; true if one was M.
  bool share_private(CoreId core, LineAddr line, const CacheSlot& l2slot);
  /// Invalidates all sharers other than `writer` and grants it ownership.
  void make_exclusive(Tick now, CoreId writer, LineAddr line,
                      CacheLine& l3_line);
  /// Downgrades any M/E owner to S on a read by another core.
  void downgrade_owners(CoreId reader, LineAddr line, CacheLine& l3_line);
  /// RIC only: after a memory fill of `line`, other cores may still hold
  /// relaxed-inclusion orphan copies whose directory knowledge was
  /// dropped with the old LLC entry. Restores their presence bits (reads)
  /// or invalidates them (writes), so no stale copy can survive a writer.
  void reconcile_ric_orphans(Tick now, LineAddr line, CoreId requester,
                             bool is_store, CacheLine& l3_line);
  /// S->M upgrade on a private store hit: the directory transaction
  /// (inclusive — re-establishing and reconciling a RIC orphan's LLC
  /// entry first) or a snoop-invalidate of every other holder
  /// (exclusive). The caller charges the LLC round trip and counter.
  void upgrade_for_store(Tick now, CoreId core, LineAddr line);

  // --- exclusive-mode machinery (InclusionPolicy::kExclusive) ---
  /// Does `core` hold the line in any of its private arrays? (Its L2
  /// includes both L1s, so one L2 probe answers.)
  bool core_holds(CoreId core, LineAddr line) const;
  bool privately_held(LineAddr line) const;
  /// Cache-to-cache service of `requester`'s L2 miss from whichever
  /// cores hold the line: readers downgrade holders to S (an M holder's
  /// dirty data goes home first), writers invalidate them. True if
  /// another core held the line.
  bool snoop_transfer(Tick now, CoreId requester, LineAddr line,
                      bool is_store);
  /// Victim-fills the LLC with an L2 eviction that was the hierarchy's
  /// last copy of the line.
  void victim_fill_l3(Tick now, const EvictedLine& ev, bool dirty);

  /// pEvict for a line leaving a private array, fired iff the active
  /// defense attaches at `level` and the line carried its tag.
  void note_private_removal(Tick now, MonitorLevel level,
                            const EvictedLine& ev);

  SystemConfig cfg_;
  std::vector<std::unique_ptr<CacheArray>> l1i_;
  std::vector<std::unique_ptr<CacheArray>> l1d_;
  std::vector<std::unique_ptr<CacheArray>> l2_;
  std::unique_ptr<SlicedCache> l3_;
  std::unique_ptr<MemController> mem_;
  // Defense machinery: exactly one of the monitors is active; SHARP adds
  // a victim chooser on LLC fills; RIC acts in handle_l3_eviction.
  std::unique_ptr<PiPoMonitor> pipo_monitor_;
  std::unique_ptr<DirectoryMonitor> dir_monitor_;
  std::unique_ptr<BitpPrefetcher> bitp_;
  MonitorIface* active_monitor_ = nullptr;
  std::unique_ptr<SharpChooser> sharp_;

  /// Prefetches whose DRAM fetch is in flight: fill L3 at `fill_at`,
  /// tagged when the active monitor tags its prefetch fills.
  struct InflightPrefetch {
    Tick fill_at;
    LineAddr line;
  };
  std::deque<InflightPrefetch> inflight_prefetch_;

  Stats stats_;
};

}  // namespace pipo
