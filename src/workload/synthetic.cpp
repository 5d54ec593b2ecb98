#include "workload/synthetic.h"

#include <algorithm>
#include <bit>

namespace pipo {

namespace {
// Warm-region conflict-burst geometry (see pick_warm). The stride is the
// Table II LLC's congruence stride (4 slices x 1024 sets = 4096 lines);
// 24 congruent lines against 16 ways guarantee conflict evictions, and 8
// laps are enough to saturate a secThr=3 Security counter. Laps within a
// burst are separated by a gap of ordinary accesses, putting the lines'
// reuse distances near the filter's observation window so that capture
// probability -- and with it the Fig 8(b) false-positive counts --
// depends on the filter size.
constexpr std::uint64_t kWarmStrideLines = 4096;
constexpr std::uint32_t kWarmGroupLines = 24;
constexpr std::uint32_t kWarmGroupLaps = 8;
constexpr std::uint32_t kWarmLapGapAccesses = 600;
}  // namespace

SyntheticWorkload::SyntheticWorkload(BenchmarkProfile profile, Addr base,
                                     std::uint64_t instr_budget,
                                     std::uint64_t seed)
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
  // Geometric gap with the profile's mean: P(stop) = 1/(mean+1).
  stop_threshold_ = chance_threshold(1.0 / (profile_.mean_gap + 1.0));
  hot_threshold_ = chance_threshold(profile_.frac_hot);
  hot_stream_threshold_ =
      chance_threshold(profile_.frac_hot + profile_.frac_stream);
  store_threshold_ = chance_threshold(profile_.store_ratio);
  stream_cursor_ = below(ws_lines_);
  // Quasi-periodic burst schedule: random initial phase, then one burst
  // per warm_burst_every accesses. A Bernoulli draw per access would give
  // each run a Poisson-distributed burst count whose variance swamps the
  // per-mix false-positive differences at downscaled budgets.
  if (profile_.warm_burst_every > 0 && warm_lines_ > 0) {
    until_burst_ = below(profile_.warm_burst_every) + 1;
  }
}

void SyntheticWorkload::refill() {
  std::uint64_t stops = 0;
  for (unsigned k = 0; k < kBlockDraws; ++k) {
    block_[k] = rng_.next();
    stops |= static_cast<std::uint64_t>(chance_hit(block_[k], stop_threshold_))
             << k;
  }
  stops_ = stops;
  pos_ = 0;
}

std::uint32_t SyntheticWorkload::draw_gap() {
  // Each draw is one trial of `while (gap < kMaxGap && !chance(p_stop))
  // ++gap`: skip the run of non-stop draws ahead, then take the stop
  // draw, unless the run reaches the cap first (then the cap's last
  // draw is the gap's last, and no stop draw is taken).
  std::uint32_t gap = 0;
  for (;;) {
    if (pos_ == kBlockDraws) refill();
    const std::uint64_t ahead = stops_ >> pos_;
    const unsigned run = ahead != 0 ? static_cast<unsigned>(
                                          std::countr_zero(ahead))
                                    : kBlockDraws - pos_;
    if (gap + run >= kMaxGap) {
      pos_ += kMaxGap - gap;
      return kMaxGap;
    }
    gap += run;
    pos_ += run;
    if (ahead != 0) {
      ++pos_;
      return gap;
    }
  }
}

Addr SyntheticWorkload::pick_hot() {
  return base_ + byte_of(hot_zipf_.rank(Rng::unit(draw())));
}

Addr SyntheticWorkload::pick_warm() {
  // One access of an LLC set-conflict burst. The warm lines are organized
  // into groups of kWarmGroupLines lines that are all LLC-congruent
  // (kWarmStrideLines apart -- the Table II LLC's congruence stride),
  // i.e. more lines than the LLC has ways in one set. A burst laps the
  // current group kWarmGroupLaps times with kWarmLapGapAccesses ordinary
  // accesses between laps; every lap evicts and re-fetches lines whose
  // reuse distance sits near the filter window, shaping benign
  // Ping-Pong. After the burst the sweep moves to the next group (phase
  // change). Groups live above the streaming working set so they do not
  // alias with it.
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

Addr SyntheticWorkload::pick_stream() {
  // Sequential walk with a 1-in-4096 chance of jumping to a new region
  // (a fresh scan).
  if (below(4096) == 0) stream_cursor_ = below(ws_lines_);
  // The cursor is always below ws_lines_, so wrapping is one compare.
  if (++stream_cursor_ == ws_lines_) stream_cursor_ = 0;
  return base_ + byte_of(stream_cursor_);
}

Addr SyntheticWorkload::pick_random() {
  return base_ + byte_of(below(ws_lines_));
}

std::optional<MemRequest> SyntheticWorkload::next(Tick) {
  if (instructions_ >= budget_) return std::nullopt;

  MemRequest req;
  req.pre_delay = draw_gap();

  // Conflict-burst state machine: bursts start on the quasi-periodic
  // schedule; inside a burst, warm accesses run back-to-back per lap with
  // a gap of ordinary traffic between laps.
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
    const std::uint64_t u = draw();
    if (chance_hit(u, hot_threshold_)) {
      req.addr = pick_hot();
    } else if (chance_hit(u, hot_stream_threshold_)) {
      req.addr = pick_stream();
    } else {
      req.addr = pick_random();
    }
  }
  req.type = chance_hit(draw(), store_threshold_) ? AccessType::kStore
                                                  : AccessType::kLoad;
  instructions_ += 1 + req.pre_delay;
  return req;
}

}  // namespace pipo
