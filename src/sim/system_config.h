// Whole-system configuration: Table II of the paper as a single value.
#pragma once

#include <cstdint>

#include "cache/cache_config.h"
#include "cache/slice_hash.h"
#include "defense/bitp.h"
#include "defense/directory_monitor.h"
#include "mem/mem_controller.h"
#include "pipo/pipo_monitor.h"

namespace pipo {

/// Which cross-core-attack defense guards the LLC. kPiPoMonitor is the
/// paper's contribution; the others are the Related Work baselines the
/// defense-comparison bench evaluates against it.
enum class DefenseKind : std::uint8_t {
  kNone,              ///< undefended baseline
  kPiPoMonitor,       ///< Auto-Cuckoo-filter monitor (this paper)
  kDirectoryMonitor,  ///< CacheGuard-style tagged-table stateful baseline
  kSharp,             ///< hierarchy-aware LLC replacement (ISCA'17)
  kBitp,              ///< back-invalidation prefetcher (PACT'19)
  kRic,               ///< relaxed inclusion for read-only lines (DAC'17)
};

const char* to_string(DefenseKind k);

/// Relationship between the private caches and the shared LLC.
enum class InclusionPolicy : std::uint8_t {
  /// The LLC is a superset of every private cache and acts as the MESI
  /// directory via per-line presence bits; evicting an LLC line
  /// back-invalidates every private copy (the paper's Fig 2 machine).
  kInclusive,
  /// Victim-cache LLC: a line lives in private caches OR the LLC, never
  /// both. Private evictions victim-fill the LLC (last-copy only),
  /// LLC hits move the line back to the requester, and cross-core
  /// sharing is resolved by snooping the other cores' arrays — there is
  /// no back-invalidation channel for an attacker to exploit.
  kExclusive,
};

const char* to_string(InclusionPolicy p);

/// Which cache level the active defense's MonitorIface observes. The
/// monitor sees misses at the attach level, tags that level's fills,
/// and receives pEvict when a tagged line is involuntarily removed from
/// that level; its restorative prefetches always land in the LLC (it
/// cannot push lines into a core's private arrays uninvited).
enum class MonitorLevel : std::uint8_t {
  kL1,   ///< per-core L1I/L1D boundary
  kL2,   ///< per-core private L2 boundary
  kLlc,  ///< the shared LLC boundary (the paper's attachment point)
};

const char* to_string(MonitorLevel l);

struct SystemConfig {
  std::uint32_t num_cores = 4;       ///< Table II: 4 cores at 2.0 GHz
  CacheConfig l1i = CacheConfig::l1i();
  CacheConfig l1d = CacheConfig::l1d();
  CacheConfig l2 = CacheConfig::l2();
  CacheConfig l3 = CacheConfig::l3();  ///< aggregate size across slices
  std::uint32_t l3_slices = 4;       ///< one slice per core (Fig 2)
  /// LLC inclusion variant; kInclusive is the paper's machine.
  InclusionPolicy inclusion = InclusionPolicy::kInclusive;
  /// Line-to-slice routing function (cache/slice_hash.h).
  SliceHashKind slice_hash = SliceHashKind::kLowBits;
  /// Defense attachment level; kLlc is the paper's design point.
  MonitorLevel monitor_level = MonitorLevel::kLlc;
  MemConfig mem = MemConfig::paper_default();
  /// Active defense. kPiPoMonitor with monitor.enabled=false behaves as
  /// kNone (the historical baseline spelling).
  DefenseKind defense = DefenseKind::kPiPoMonitor;
  MonitorConfig monitor = MonitorConfig::paper_default();
  DirectoryMonitorConfig dir_monitor;
  BitpConfig bitp;
  std::uint64_t seed = 0x5EED;

  void validate() const {
    l1i.validate();
    l1d.validate();
    l2.validate();
    l3.validate();
    monitor.filter.validate();
    if (num_cores == 0 || num_cores > 32) {
      throw std::invalid_argument("num_cores must be in [1,32]");
    }
    if (slice_hash == SliceHashKind::kIntelCas &&
        l3_slices > kMaxIntelCasSlices) {
      throw std::invalid_argument(
          "intel-cas slice hash supports at most 8 LLC slices");
    }
  }

  /// The paper's evaluation platform (Table II) with PiPoMonitor enabled.
  static SystemConfig paper_default() { return SystemConfig{}; }

  /// Identical machine without the defense — the evaluation baseline.
  static SystemConfig baseline() {
    SystemConfig c;
    c.defense = DefenseKind::kNone;
    c.monitor.enabled = false;
    return c;
  }

  /// The same machine guarded by one of the Related Work baselines.
  static SystemConfig with_defense(DefenseKind kind) {
    SystemConfig c;
    c.defense = kind;
    c.monitor.enabled = (kind == DefenseKind::kPiPoMonitor);
    return c;
  }
};

}  // namespace pipo
