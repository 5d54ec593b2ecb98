// Cross-core Prime+Probe attacker (Liu et al., S&P'15; Section VI-A of
// the paper).
//
// Every `interval` cycles the attacker traverses one eviction set per
// target address, timing each access. The traversal doubles as the next
// round's prime (the standard optimization): after it completes, the LLC
// sets are filled with attacker lines. A traversal access slower than the
// LLC-miss threshold means some attacker line was evicted since the last
// round — the attacker infers the victim touched a congruent line.
//
// Traversal direction alternates every round (zig-zag), Liu et al.'s
// doubly-linked-list technique: under LRU, probing back toward the
// most-recently-used end makes the refill of a missed line evict the
// *victim's* line instead of the next attacker line, preventing the
// self-eviction cascade that would otherwise make every probe miss.
//
// Observation indexing: traversal k (k >= 1) reports evictions that
// happened during window (k-1), i.e. while the victim processed key bit
// k-1. Traversal 0 is the initial prime and carries no information.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/workload_if.h"

namespace pipo {

struct AttackerConfig {
  /// One eviction set per monitored target (square, multiply), byte
  /// addresses; see build_eviction_set().
  std::vector<std::vector<Addr>> eviction_sets;
  Tick interval = 5000;          ///< paper: probe every 5000 cycles
  std::uint32_t traversals = 101;  ///< prime + 100 observation rounds
  std::uint32_t miss_threshold = 135;  ///< latency above this = LLC miss

  // --- fuzzer-explored schedule variations (src/fuzz/). The defaults
  // reproduce the historical attacker bit for bit: with bypass_pct at
  // 100 no RNG is ever drawn and with far_period 0 no delay is ever
  // injected, so existing experiments are unchanged. ---
  /// Percentage of probes sent straight to the LLC
  /// (MemRequest::bypass_private), the standard engineered probe
  /// pattern: through its own L1/L2 the attacker would stale-date its
  /// lines in the LLC replacement order and blind itself with
  /// self-eviction noise. The rest go through the private hierarchy (a
  /// mixed probe pattern some defenses see very differently from a
  /// pure-bypass one). Drawn per probe from a deterministic stream
  /// seeded by `mix_seed`.
  std::uint32_t bypass_pct = 100;
  std::uint64_t mix_seed = 0x9B57;
  /// Long-gap schedule perturbation: every `far_period`-th probe
  /// carries an extra pre_delay of `far_delay` ticks (0 = never). Large
  /// values open long idle gaps in the attacker's schedule — shapes the
  /// hand-written attacks never exercised.
  Tick far_delay = 0;
  std::uint32_t far_period = 0;
};

class PrimeProbeAttacker final : public Workload {
 public:
  explicit PrimeProbeAttacker(AttackerConfig cfg);

  std::optional<MemRequest> next(Tick now) override;
  void on_complete(const MemRequest& req, Tick issued,
                   Tick completed) override;

  /// observations()[t][k] — true iff traversal k saw >= 1 miss in target
  /// t's eviction set. k ranges over all traversals (index 0 = prime).
  const std::vector<std::vector<bool>>& observations() const {
    return observed_;
  }
  /// miss_counts()[t][k] — number of missing lines per traversal.
  const std::vector<std::vector<std::uint32_t>>& miss_counts() const {
    return misses_;
  }
  /// latency_sums()[t][k] — summed probe latency (completed - issued)
  /// over target t's eviction set during traversal k: the raw material
  /// of the fuzzer's quantized probe-latency observation symbols
  /// (src/fuzz/scenario.h), finer-grained than the thresholded
  /// miss_counts().
  const std::vector<std::vector<std::uint64_t>>& latency_sums() const {
    return latency_;
  }
  std::uint32_t completed_traversals() const { return completed_; }

 private:
  /// Target set and element index of flat position `pos` for the current
  /// traversal, honoring the zig-zag direction.
  std::pair<std::size_t, std::size_t> locate(std::size_t pos) const;

  AttackerConfig cfg_;
  std::size_t total_lines_ = 0;  ///< sum of eviction-set sizes

  std::uint32_t traversal_ = 0;  ///< current traversal index
  std::size_t pos_ = 0;          ///< flat position within the traversal
  std::uint32_t completed_ = 0;
  std::uint64_t probes_issued_ = 0;  ///< far-period schedule counter
  Rng mix_rng_;                      ///< bypass-mix stream (bypass_pct)

  std::vector<std::vector<bool>> observed_;
  std::vector<std::vector<std::uint32_t>> misses_;
  std::vector<std::vector<std::uint64_t>> latency_;
};

}  // namespace pipo
