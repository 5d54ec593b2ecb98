// Synthetic benchmark workload: generates a memory-request stream with a
// given BenchmarkProfile's personality until an instruction budget is
// exhausted. Deterministic given (profile, base address, seed).
//
// Stream composition per request:
//   * hot accesses   — Zipf-distributed over the profile's hot region
//                      (models stack/globals/inner-loop data), one
//                      uniform draw mapped to a rank by ZipfTable;
//   * warm accesses  — rare bursts of short laps over LLC set-conflict
//                      groups (more congruent lines than LLC ways). Each
//                      lap evicts and re-fetches the group's lines with a
//                      reuse distance inside the Auto-Cuckoo filter's
//                      observation window — the benign Ping-Pong traffic
//                      of Fig 8(b). Uniform capacity pressure cannot
//                      produce captures (a capacity-evicted line sees an
//                      LLC's worth of misses before re-fetch, 8x the
//                      filter window), so conflict bursts are modeled
//                      explicitly, as in the irregular SPEC codes;
//   * stream accesses — a sequential cursor walking the working set line
//                      by line with occasional random restarts (models
//                      scans; defeats the LLC, feeds the prefetch path);
//   * random accesses — uniform over the working set (models pointer
//                      chasing and hash/graph traversal misses).
// Gaps between memory instructions are geometric with the profile's
// mean, giving an aggregate memory intensity comparable to the modeled
// benchmark.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "sim/workload_if.h"
#include "workload/profile.h"
#include "workload/zipf_table.h"

namespace pipo {

class SyntheticWorkload final : public Workload {
 public:
  /// `base` is the byte address of this process's private region; regions
  /// of co-running workloads must not overlap (callers use
  /// disjoint_base()). `instr_budget` bounds retired instructions.
  SyntheticWorkload(BenchmarkProfile profile, Addr base,
                    std::uint64_t instr_budget, std::uint64_t seed);

  std::optional<MemRequest> next(Tick now) override;

  std::uint64_t generated_instructions() const { return instructions_; }
  /// Conflict bursts started so far (workload-characterization hook).
  std::uint64_t warm_bursts_started() const { return bursts_started_; }
  const BenchmarkProfile& profile() const { return profile_; }

  /// A canonical non-overlapping base address for core `core` running
  /// workload slot `slot` (64 GiB apart; far larger than any profile's
  /// working set).
  static Addr disjoint_base(std::uint32_t core, std::uint32_t slot = 0) {
    return (static_cast<Addr>(core + 1) << 36) +
           (static_cast<Addr>(slot) << 32);
  }

 private:
  Addr pick_hot();
  Addr pick_warm();
  Addr pick_stream();
  Addr pick_random();

  BenchmarkProfile profile_;
  Addr base_;
  std::uint64_t budget_;
  std::uint64_t instructions_ = 0;
  Rng rng_;

  std::uint64_t ws_lines_;
  std::uint64_t hot_lines_;
  std::uint64_t warm_lines_;
  std::uint64_t stream_cursor_ = 0;
  // Conflict-burst state machine (see pick_warm / next).
  bool in_burst_ = false;
  std::uint64_t bursts_started_ = 0;
  std::uint64_t until_burst_ = 0;  ///< non-burst accesses until next burst
  std::uint64_t warm_group_ = 0;
  std::uint32_t warm_pos_ = 0;
  std::uint32_t warm_lap_ = 0;
  std::uint32_t lap_gap_left_ = 0;

  ZipfTable hot_zipf_;  ///< hot-line ranks, Zipf(profile.zipf_s)
};

}  // namespace pipo
