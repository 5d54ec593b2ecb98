// Directory-extension stateful baseline (CacheGuard / Wang et al.,
// Related Work of the paper): the same Ping-Pong detection and prefetch
// response as PiPoMonitor, but the recording structure is a conventional
// set-associative table of full line tags with LRU replacement instead
// of the Auto-Cuckoo filter.
//
// This is the baseline the paper's two headline claims are made against:
//
//  * storage — every entry stores a full line tag (~34 bits for a 40-bit
//    physical address space) plus the counter, vs the filter's 15 bits;
//    reaching the same number of tracked lines costs ~3x the SRAM (the
//    overhead bench quantifies it, Section VII-D's "order of magnitude"
//    refers to per-LLC-line directory extensions);
//
//  * reverse engineering — placement is the deterministic function
//    set = line mod num_sets and replacement is LRU, so an adversary who
//    knows the geometry can flush any record with exactly `ways`
//    same-set inserts (DirectoryMonitor has no autonomic-deletion
//    randomness). tests/defense/directory_monitor_test.cpp demonstrates
//    the deterministic eviction set; contrast with b^(MNK+1) for the
//    Auto-Cuckoo filter (Fig 7).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "pipo/monitor_iface.h"

namespace pipo {

struct DirectoryMonitorConfig {
  std::uint32_t sets = 1024;     ///< table sets (power of two)
  std::uint32_t ways = 8;        ///< table associativity
  std::uint32_t sec_thr = 3;     ///< same Ping-Pong threshold as the paper
  std::uint32_t counter_bits = 2;
  std::uint32_t prefetch_delay = 32;
  /// Bits of a full line tag stored per entry (40-bit physical address
  /// space, 6 offset bits, minus index bits — conservatively the full
  /// line address width is used for the storage model).
  std::uint32_t tag_bits = 34;

  std::uint32_t counter_max() const { return (1u << counter_bits) - 1; }
  std::uint64_t entries() const {
    return static_cast<std::uint64_t>(sets) * ways;
  }
  /// Storage in bits: valid + full tag + counter per entry.
  std::uint64_t storage_bits() const {
    return entries() * (1 + tag_bits + counter_bits);
  }
};

class DirectoryMonitor final : public MonitorIface {
 public:
  explicit DirectoryMonitor(const DirectoryMonitorConfig& cfg);

  const DirectoryMonitorConfig& config() const { return cfg_; }

  /// Access: exact-tag lookup; hit increments the counter (saturating),
  /// miss inserts with counter 0, evicting the set's LRU entry.
  MonitorAccessResult on_access(LineAddr line) override;

  /// Same pEvict semantics as PiPoMonitor's default gate,
  /// PrefetchGate::kCapturedInFilter: an eviction caused by a prefetch
  /// fill never re-arms; a demand-caused one re-arms an accessed line,
  /// and an unaccessed line while the table still reports it captured.
  bool on_pevict(Tick now, LineAddr line, bool accessed,
                 bool demand_caused) override;

  /// Counter of `line`'s entry, if tracked (test/analysis hook).
  std::optional<std::uint32_t> counter_of(LineAddr line) const;

  /// Ground truth: is the line currently tracked?
  bool tracks(LineAddr line) const { return counter_of(line).has_value(); }

  std::uint64_t captures() const override { return captures_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    bool valid = false;
    LineAddr line = 0;
    std::uint32_t counter = 0;
    std::uint64_t lru = 0;  ///< last-touch stamp
  };

  std::size_t set_of(LineAddr line) const { return line & (cfg_.sets - 1); }
  Entry* find(LineAddr line);
  const Entry* find(LineAddr line) const;

  DirectoryMonitorConfig cfg_;
  std::vector<Entry> table_;
  std::uint64_t stamp_ = 0;

  std::uint64_t captures_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace pipo
