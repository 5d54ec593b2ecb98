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
//
// Block draws. The generator takes its Rng's draws 64 at a time, in the
// Rng's order, and uses them one by one: every draw it makes (a gap
// trial, a region pick, a store decision) takes the next unused one,
// where the per-draw generator called rng_.next()
// (tests/oracle/reference_synthetic.h keeps that generator as the
// specification). At each refill it marks in a 64-bit mask which draws
// would end a pre_delay gap, so a gap is a countr_zero of that mask
// instead of a loop of Bernoulli branches whose exit the branch
// predictor misses. The request stream is the per-draw generator's,
// byte for byte:
//   * only this generator reads rng_, so draws taken ahead and never
//     used change nothing, and the draws it uses are the same values in
//     the same order;
//   * a gap consumes draws as `while (gap < 64 && !chance(p_stop))
//     ++gap` did: k + 1 draws if draw k is the first stop and k < 64,
//     else 64 draws and a gap of 64, across refills too;
//   * each chance(p) and `u < frac` is the integer compare
//     (x >> 11) < chance_threshold(p) (common/rng.h), exact because
//     uniform() is (x >> 11) * 2^-53; the thresholds come from the same
//     doubles the per-draw code computed on every call;
//   * below() is the one Lemire definition Rng::below uses, and the
//     stream cursor, always below ws_lines_, wraps with a compare
//     instead of `%`.
#pragma once

#include <cstdint>
#include <optional>

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
  /// Draws per block, and the cap on a pre_delay gap (one mask word
  /// covers one block; the two 64s are independent).
  static constexpr unsigned kBlockDraws = 64;
  static constexpr std::uint32_t kMaxGap = 64;

  Addr pick_hot();
  Addr pick_warm();
  Addr pick_stream();
  Addr pick_random();

  /// Refills the block with the Rng's next 64 draws and their stop mask.
  void refill();
  /// The next unused draw.
  std::uint64_t draw() {
    if (pos_ == kBlockDraws) refill();
    return block_[pos_++];
  }
  std::uint64_t below(std::uint64_t bound) {
    return lemire_below(bound, [this] { return draw(); });
  }
  /// One geometric pre_delay gap, from the stop mask.
  std::uint32_t draw_gap();

  BenchmarkProfile profile_;
  Addr base_;
  std::uint64_t budget_;
  std::uint64_t instructions_ = 0;
  Rng rng_;  ///< read only by refill()

  // chance_threshold() of P(a gap stops) = 1/(mean_gap+1), of frac_hot,
  // of frac_hot + frac_stream and of store_ratio.
  std::uint64_t stop_threshold_ = 0;
  std::uint64_t hot_threshold_ = 0;
  std::uint64_t hot_stream_threshold_ = 0;
  std::uint64_t store_threshold_ = 0;

  std::uint64_t stops_ = 0;     ///< bit k: block_[k] would end a gap
  unsigned pos_ = kBlockDraws;  ///< next unused draw; kBlockDraws: refill

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

  std::uint64_t block_[kBlockDraws];  ///< the Rng's draws, in its order
};

}  // namespace pipo
