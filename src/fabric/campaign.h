// Campaign = one sweep of (mix x defense x seed) + trace-replay
// configurations, as a value that can be enumerated, executed and
// serialized. This is the code sweep_runner, the scenario fuzzer and the
// distributed fabric (fabric/coordinator.h, fabric/worker.h) share so
// "the same campaign" means the same thing everywhere:
//
//  * enumerate_campaign gives every configuration a dense **config id**
//    (its index in the fixed enumeration order: the mix grid first —
//    mixes outer, defenses middle, seeds inner — then scenarios x
//    defenses, then fuzz cells x defenses). Config ids key the fabric's
//    lease table and fix the
//    merged output order, so a distributed campaign's JSON is
//    byte-identical to a serial run no matter which worker ran what.
//  * run_campaign_config executes one configuration and never throws:
//    a per-config failure becomes a structured {"config": ..,
//    "error": ..} record (ConfigResult::error) so one bad configuration
//    cannot take down a million-config campaign. run_campaign runs a
//    whole campaign on in-process threads.
//  * config_result_json renders the one canonical record form. Both the
//    standalone runner and the fabric emit through it; `include_wall`
//    adds the host-timing field (wall_ms), which deterministic outputs
//    (fabric merges, sweep_runner --deterministic) omit so byte
//    comparison across runs and worker counts is meaningful.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/perf_experiment.h"
#include "sim/system_config.h"
#include "workload/trace_codec.h"

namespace pipo {

/// A replayable scenario: a trace file or a directory of core<i>.trace
/// files (the TraceCapture layout).
struct TraceScenario {
  std::string name;  ///< label for the JSON record
  std::string path;

  bool operator==(const TraceScenario&) const = default;
};

/// A fuzz-genotype cell: one attack scenario (src/fuzz/genotype.h,
/// carried in its canonical "PPG1:..." text form so this header and the
/// wire codec stay independent of the fuzzer) to run against each of
/// the campaign's defenses on the campaign's hierarchy-variant axes.
/// The scenario fuzzer runs each generation as one campaign of these
/// through run_campaign, as sweep_runner runs its grid, so candidates
/// get the same config-id order and failure records as every campaign.
struct FuzzCell {
  std::string name;      ///< label for the JSON record ("g17" etc.)
  std::string genotype;  ///< ScenarioGenotype canonical text form

  bool operator==(const FuzzCell&) const = default;
};

struct CampaignSpec {
  bool run_mixes = true;  ///< false: trace scenarios only
  unsigned mix_lo = 1, mix_hi = 10;
  std::vector<DefenseKind> defenses;  ///< empty is invalid; see all_defenses()
  unsigned seeds = 1;
  std::uint64_t instr = 200'000;
  std::uint64_t ws_div = 16;
  // --- hierarchy variants (defaults = the paper's machine) ---
  InclusionPolicy inclusion = InclusionPolicy::kInclusive;
  SliceHashKind slice_hash = SliceHashKind::kLowBits;
  MonitorLevel monitor_level = MonitorLevel::kLlc;
  std::vector<TraceScenario> scenarios;
  /// Fuzz-genotype cells: each runs against every defense on the
  /// campaign's hierarchy axes, scored by the multi-symbol leakage
  /// estimator with `fuzz_perm_rounds` significance shuffles.
  std::vector<FuzzCell> fuzz;
  std::uint32_t fuzz_perm_rounds = 200;
  /// Mix-capture directory (standalone sweeps only — the fabric rejects
  /// capture campaigns: workers would each record to their own disk).
  std::string record_dir;
  TraceFormat record_format = TraceFormat::kTextV1;

  /// Throws std::invalid_argument on an impossible campaign (empty mix
  /// range, no defenses, nothing to run).
  void validate() const;

  bool operator==(const CampaignSpec&) const = default;
};

std::vector<DefenseKind> all_defenses();
/// "none|pipo|dir|sharp|bitp|ric" -> kind; throws std::invalid_argument.
DefenseKind parse_defense(const std::string& s);
/// "all" or a comma-separated list of parse_defense names.
std::vector<DefenseKind> parse_defense_list(const std::string& csv);

/// "inc|inclusive" or "exc|exclusive" -> policy; throws
/// std::invalid_argument.
InclusionPolicy parse_inclusion(const std::string& s);
/// parse_slice_hash, throwing std::invalid_argument on a bad name.
SliceHashKind parse_slice_hash_kind(const std::string& s);
/// "l1|l2|llc" -> level; throws std::invalid_argument.
MonitorLevel parse_monitor_level(const std::string& s);

/// The one parser of the four cell-axis flags (--defenses, --llc,
/// --slice-hash, --monitor-level) for all three campaign binaries, into
/// a CampaignSpec or a FuzzerConfig (any `Axes` with those four fields).
/// Returns false, without calling `value`, for any other flag; throws
/// std::invalid_argument on a bad value.
template <class Axes>
bool parse_axis_flag(const std::string& arg,
                     const std::function<std::string()>& value, Axes& axes) {
  if (arg == "--defenses") {
    axes.defenses = parse_defense_list(value());
  } else if (arg == "--llc") {
    axes.inclusion = parse_inclusion(value());
  } else if (arg == "--slice-hash") {
    axes.slice_hash = parse_slice_hash_kind(value());
  } else if (arg == "--monitor-level") {
    axes.monitor_level = parse_monitor_level(value());
  } else {
    return false;
  }
  return true;
}

/// Parses `arg` if it is one of the ten campaign flags sweep_runner and
/// pipo_coordinator share (parse_axis_flag's four, plus --mixes,
/// --seeds, --instr, --ws-div, --trace and --no-mixes) into `spec`,
/// collecting --trace arguments into `trace_paths` for
/// expand_trace_paths. `value` yields the flag's argument. Returns false,
/// without calling `value`, for a flag it does not own; throws
/// std::invalid_argument on a bad value.
bool parse_campaign_flag(const std::string& arg,
                         const std::function<std::string()>& value,
                         CampaignSpec& spec,
                         std::vector<std::string>& trace_paths);

/// Expands --trace arguments into scenarios: each path is a trace file,
/// a scenario directory holding core<i>.trace files, or a directory of
/// such scenario directories (expanded in name order). Throws
/// std::invalid_argument for missing paths or empty directories.
std::vector<TraceScenario> expand_trace_paths(
    const std::vector<std::string>& paths);

/// One cell of the campaign grid.
struct ConfigKey {
  unsigned mix = 0;  ///< 0 for trace scenarios and fuzz cells
  DefenseKind defense = DefenseKind::kNone;
  std::uint64_t seed = 42;
  int trace = -1;  ///< index into CampaignSpec::scenarios, or -1
  int fuzz = -1;   ///< index into CampaignSpec::fuzz, or -1

  bool operator==(const ConfigKey&) const = default;
};

/// The campaign's full grid in canonical config-id order (the vector
/// index IS the config id).
std::vector<ConfigKey> enumerate_campaign(const CampaignSpec& spec);

struct ConfigResult {
  std::uint64_t config_id = 0;
  ConfigKey key{};
  std::string trace_name;  ///< scenario label when key.trace >= 0
  MixPerfResult r{};
  double wall_ms = 0;  ///< host timing, not simulated
  std::string error;   ///< non-empty: the config failed instead of running
  // --- fuzz-cell results (valid when key.fuzz >= 0; the shared
  // counters — stats, captures, prefetches — reuse `r`) ---
  std::string fuzz_name;  ///< cell label when key.fuzz >= 0
  std::string genotype;   ///< canonical genotype the cell ran
  double mi_bits = 0.0;
  double p_value = 1.0;
  double decoder_acc = 0.0;
  std::uint32_t fuzz_rounds = 0;   ///< observation rounds scored
  std::string signature;           ///< coverage signature hex
};

/// Runs one configuration. Exceptions are captured into
/// ConfigResult::error (the structured failure record) — this function
/// does not throw for per-config failures.
ConfigResult run_campaign_config(const CampaignSpec& spec,
                                 std::uint64_t config_id,
                                 const ConfigKey& key);

/// Runs every config of enumerate_campaign(spec) (unvalidated) on
/// max(1, min(threads, configs)) threads, the caller's among them, and
/// returns the results indexed by config id, as at any thread count.
std::vector<ConfigResult> run_campaign(const CampaignSpec& spec,
                                       unsigned threads);

std::string json_escape(const std::string& s);

/// One JSON record (no surrounding indentation/comma). Error results
/// render as {"config": N, <identity>, "error": "..."}; successes keep
/// the historical sweep_runner field layout, with wall_ms only when
/// `include_wall` (deterministic outputs must not embed host timing).
std::string config_result_json(const ConfigResult& r, bool include_wall);

/// Writes the campaign output array: records in the given order, plus
/// an optional trailing record (the {"scaling": ...} object); the exact
/// bytes sweep_runner has always produced.
void write_campaign_records(std::FILE* f,
                            const std::vector<std::string>& records,
                            const std::string& trailing = {});

/// write_campaign_records into the file at `path` (empty: stdout), then
/// flushes and closes it. Throws std::runtime_error naming the path if
/// any step fails — a full disk must not pass for a complete campaign.
void write_campaign_file(const std::string& path,
                         const std::vector<std::string>& records,
                         const std::string& trailing = {});

}  // namespace pipo
