// Reference synthetic generator for the block-draw oracle.
//
// ReferenceSyntheticWorkload is SyntheticWorkload as it was before it
// drew from its Rng in blocks: one rng_ call per draw, the pre_delay gap
// as a loop of Bernoulli trials, every chance(p) and stream-fraction
// test on doubles, and the stream cursor wrapped with `%`. It is the
// specification: synthetic_block_oracle_test.cpp asserts that the
// production generator (src/workload/synthetic.h) yields exactly the
// request stream, instruction count and burst count this one does. Keep
// it per-draw. rng() exposes the generator for the test's draw-position
// bookkeeping only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "common/types.h"
#include "sim/workload_if.h"
#include "workload/profile.h"
#include "workload/zipf_table.h"

namespace pipo::oracle {

class ReferenceSyntheticWorkload final : public Workload {
 public:
  ReferenceSyntheticWorkload(BenchmarkProfile profile, Addr base,
                             std::uint64_t instr_budget, std::uint64_t seed)
      : profile_(profile),
        base_(line_align(base)),
        budget_(instr_budget),
        rng_(seed),
        ws_lines_(std::max<std::uint64_t>(1, profile.working_set_bytes /
                                                 kLineSizeBytes)),
        hot_lines_(std::max<std::uint64_t>(
            1, std::min(profile.hot_bytes, profile.working_set_bytes) /
                   kLineSizeBytes)),
        warm_lines_(std::min(profile.warm_bytes, profile.working_set_bytes) /
                    kLineSizeBytes),
        hot_zipf_(hot_lines_, profile.zipf_s) {
    profile_.normalize();
    stream_cursor_ = rng_.below(ws_lines_);
    if (profile_.warm_burst_every > 0 && warm_lines_ > 0) {
      until_burst_ = rng_.below(profile_.warm_burst_every) + 1;
    }
  }

  std::optional<MemRequest> next(Tick) override {
    if (instructions_ >= budget_) return std::nullopt;

    MemRequest req;
    // Geometric gap with the profile's mean: P(stop) = 1/(mean+1).
    const double p_stop = 1.0 / (profile_.mean_gap + 1.0);
    std::uint32_t gap = 0;
    while (gap < 64 && !rng_.chance(p_stop)) ++gap;
    req.pre_delay = gap;

    if (!in_burst_ && until_burst_ > 0 && --until_burst_ == 0) {
      in_burst_ = true;
      ++bursts_started_;
      warm_pos_ = 0;
      warm_lap_ = 0;
      lap_gap_left_ = 0;
      until_burst_ = profile_.warm_burst_every;
    }
    if (in_burst_ && lap_gap_left_ == 0) {
      req.addr = pick_warm();
    } else {
      if (lap_gap_left_ > 0) --lap_gap_left_;
      const double u = rng_.uniform();
      if (u < profile_.frac_hot) {
        req.addr = pick_hot();
      } else if (u < profile_.frac_hot + profile_.frac_stream) {
        req.addr = pick_stream();
      } else {
        req.addr = pick_random();
      }
    }
    req.type = rng_.chance(profile_.store_ratio) ? AccessType::kStore
                                                 : AccessType::kLoad;
    instructions_ += 1 + req.pre_delay;
    return req;
  }

  std::uint64_t generated_instructions() const { return instructions_; }
  std::uint64_t warm_bursts_started() const { return bursts_started_; }
  const Rng& rng() const { return rng_; }

 private:
  static constexpr std::uint64_t kWarmStrideLines = 4096;
  static constexpr std::uint32_t kWarmGroupLines = 24;
  static constexpr std::uint32_t kWarmGroupLaps = 8;
  static constexpr std::uint32_t kWarmLapGapAccesses = 600;

  Addr pick_hot() {
    return base_ + byte_of(hot_zipf_.rank(rng_.uniform()));
  }

  Addr pick_warm() {
    const std::uint64_t line = ws_lines_ + warm_group_ +
                               static_cast<std::uint64_t>(warm_pos_) *
                                   kWarmStrideLines;
    const std::uint64_t groups =
        std::max<std::uint64_t>(1, warm_lines_ / kWarmGroupLines);
    if (++warm_pos_ == kWarmGroupLines) {
      warm_pos_ = 0;
      lap_gap_left_ = kWarmLapGapAccesses;
      if (++warm_lap_ == kWarmGroupLaps) {
        warm_lap_ = 0;
        in_burst_ = false;
        warm_group_ = (warm_group_ + 1) % groups;
      }
    }
    return base_ + byte_of(line);
  }

  Addr pick_stream() {
    if (rng_.one_in(4096)) stream_cursor_ = rng_.below(ws_lines_);
    stream_cursor_ = (stream_cursor_ + 1) % ws_lines_;
    return base_ + byte_of(stream_cursor_);
  }

  Addr pick_random() { return base_ + byte_of(rng_.below(ws_lines_)); }

  BenchmarkProfile profile_;
  Addr base_;
  std::uint64_t budget_;
  std::uint64_t instructions_ = 0;
  Rng rng_;

  std::uint64_t ws_lines_;
  std::uint64_t hot_lines_;
  std::uint64_t warm_lines_;
  std::uint64_t stream_cursor_ = 0;
  bool in_burst_ = false;
  std::uint64_t bursts_started_ = 0;
  std::uint64_t until_burst_ = 0;
  std::uint64_t warm_group_ = 0;
  std::uint32_t warm_pos_ = 0;
  std::uint32_t warm_lap_ = 0;
  std::uint32_t lap_gap_left_ = 0;

  ZipfTable hot_zipf_;
};

}  // namespace pipo::oracle
