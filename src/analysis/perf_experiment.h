// Fig 8 experiment harness: runs one Table III mix on the simulated
// 4-core machine and reports execution time and PiPoMonitor activity.
//
// The paper's metric definitions (Section VII-B):
//  * performance = baseline execution time / configuration execution time
//    (normalized, higher is better);
//  * false positives = benign cache lines that exhibited Ping-Pong
//    behavior and triggered a Prefetch, reported per million instructions.
//
// Trace scenarios: a live mix run can be captured per core
// (TraceCapture -> <dir>/core<i>.trace via workload/stream_trace.h) and
// replayed later with run_trace_perf, which reproduces the live run's
// System::Stats and exec_time byte-identically
// (tests/e2e/trace_replay_e2e_test.cpp pins the loop).
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulation.h"
#include "sim/system.h"
#include "sim/system_config.h"
#include "workload/trace_codec.h"

namespace pipo {

struct MixPerfResult {
  unsigned mix = 0;                 ///< 0 for trace-replay scenarios
  Tick exec_time = 0;               ///< tick at which the last core finished
  std::uint64_t instructions = 0;   ///< total retired across cores
  std::uint64_t prefetches = 0;     ///< monitor prefetches = false positives
  std::uint64_t captures = 0;       ///< Ping-Pong captures in the filter
  double false_positives_per_mi = 0.0;
  System::Stats stats;
};

/// Capture request for run_mix_perf: record each core's consumed
/// request stream to `dir`/core<i>.trace in `format`. The directory is
/// created if missing.
struct TraceCapture {
  std::string dir;
  TraceFormat format = TraceFormat::kTextV1;
};

/// Runs mix `mix_number` (1..10) with `instr_budget` instructions per
/// core under `config`. Deterministic given `seed`. With `capture`, the
/// run is additionally recorded per core (recording is invisible to the
/// run — results are identical with and without it).
MixPerfResult run_mix_perf(unsigned mix_number, const SystemConfig& config,
                           std::uint64_t instr_budget, std::uint64_t seed,
                           std::uint64_t ws_divisor = 1,
                           const TraceCapture* capture = nullptr);

/// True if `filename` follows the scenario layout core<digits>.trace
/// (the naming TraceCapture writes and assign_trace_scenario loads);
/// when it does, `digits` (if non-null) receives the digit string —
/// range and canonical-form checks are the loader's job. The one
/// definition of the naming contract, shared by the loader and
/// sweep_runner's scenario discovery.
bool is_core_trace_name(const std::string& filename,
                        std::string* digits = nullptr);

/// Assigns a recorded trace scenario to `sim`'s cores via streaming
/// readers (one frame's payload or text line in memory per core),
/// idle-filling undriven cores. `path` is either a single trace file
/// (drives `single_file_core`) or a directory holding per-core files
/// named core<i>.trace — the layout TraceCapture writes, in which case
/// `single_file_core` is ignored; formats are autodetected per file. Returns the number of driven
/// cores. Throws std::runtime_error if the directory has no
/// core<i>.trace files, if it names a core the simulation does not have
/// (including zero-padded spellings the loader would miss), if
/// `single_file_core` is out of range, or if any trace file holds zero
/// requests (empty, whitespace-only, or a framed container with no
/// frames — a truncated-to-empty capture replaying as a silently idle
/// core would produce plausible but wrong replay stats, like every
/// other silent drop this loader rejects). Direct codec users keep the permissive
/// empty-trace behavior.
std::uint32_t assign_trace_scenario(Simulation& sim,
                                    const std::string& path,
                                    CoreId single_file_core = 0);

/// Replays a recorded trace scenario (see assign_trace_scenario) and
/// collects the run's results.
MixPerfResult run_trace_perf(const std::string& path,
                             const SystemConfig& config);

}  // namespace pipo
