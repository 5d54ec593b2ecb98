// Parallel configuration-sweep driver for the paper's evaluation grid.
//
// The figures 3-8 experiments all reduce to "run one (defense, workload,
// seed) configuration through the simulator and collect stats" — each
// Simulation is a self-contained single-threaded object, so independent
// configurations are embarrassingly parallel. This runner fans the cross
// product across worker threads and emits one JSON record per
// configuration (an array on stdout or --out FILE), ready for BENCH_*.json
// trajectory tracking.
//
// The campaign itself — enumeration order, the thread pool that runs it
// (run_campaign, which the scenario fuzzer uses too), record rendering —
// lives in src/fabric/campaign.h, shared with the distributed sweep
// fabric (tools/pipo_coordinator.cpp): a fabric campaign run with the
// same flags merges to bytes identical to this runner under
// --deterministic.
//
// Usage:
//   sweep_runner [--threads N] [--mixes 1-10] [--defenses all|none,pipo,...]
//                [--seeds K] [--instr M] [--ws-div D] [--out FILE]
//                [--llc inc|exc] [--slice-hash low|cas]
//                [--monitor-level l1|l2|llc]
//                [--trace PATH]... [--no-mixes]
//                [--deterministic]
//                [--record DIR] [--record-format text|framed]
//
// --threads parallelizes *across* configurations (one single-threaded
// Simulation per worker) — simulated fields are byte-identical at any
// thread count. On hosts with more than one hardware thread the JSON
// array ends with a {"scaling": ...} record ready for BENCH_engine.json
// (docs/benchmarks.md); single-threaded hosts omit it
// (analysis/scaling_record.h). --deterministic strips the two host-timing
// artifacts (per-config wall_ms and the scaling record) so outputs are
// byte-comparable across runs, hosts and --threads values — the fabric
// equivalence oracle diffs against exactly this mode.
//
// A configuration that throws becomes a structured
// {"config": N, ..., "error": "..."} record instead of killing the sweep;
// the run still exits nonzero so CI notices.
//
// Recorded traces run as sweep scenarios alongside the mixes
// (docs/traces.md): each --trace PATH is a trace file (drives core 0),
// a scenario directory holding core<i>.trace files, or a directory of
// such scenario directories — every scenario runs against every
// --defenses entry via streaming replay (one frame's payload or text
// line in memory per core). --no-mixes drops the mix grid and runs
// traces only. --record DIR captures every mix configuration's per-core
// request streams to DIR/mix<m>_<defense>_s<seed>/core<i>.trace
// (recording is invisible to the run: simulated fields match a
// non-recording sweep byte for byte).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/scaling_record.h"
#include "common/parse_num.h"
#include "fabric/campaign.h"

namespace {

using namespace pipo;

struct Options {
  unsigned threads = std::thread::hardware_concurrency();
  bool deterministic = false;  ///< omit wall_ms + scaling (host timing)
  std::string out;
  std::vector<std::string> trace_paths;  ///< --trace, before expansion
  CampaignSpec spec;
};

Options parse_args(int argc, char** argv) {
  Options o;
  o.spec.defenses = all_defenses();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[i];
    };
    if (parse_campaign_flag(arg, value, o.spec, o.trace_paths)) continue;
    if (arg == "--threads") {
      o.threads = parse_uint32(value(), "--threads", 0, 4096);
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--deterministic") {
      o.deterministic = true;
    } else if (arg == "--record") {
      o.spec.record_dir = value();
    } else if (arg == "--record-format") {
      const auto fmt = parse_trace_format(value());
      if (!fmt) {
        throw std::invalid_argument("--record-format must be text|framed");
      }
      o.spec.record_format = *fmt;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (o.threads == 0) o.threads = 1;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
    opt.spec.scenarios = expand_trace_paths(opt.trace_paths);
    opt.spec.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_runner: %s\n", e.what());
    return 2;
  }

  // Results are indexed by config id, so the output order (and the
  // record bytes, under --deterministic) is identical at any --threads.
  const auto sweep_start = std::chrono::steady_clock::now();
  const std::vector<ConfigResult> results =
      run_campaign(opt.spec, opt.threads);
  const double sweep_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  // The threads run_campaign used: a valid campaign has >= 1 config.
  const unsigned n_threads = static_cast<unsigned>(
      std::min<std::size_t>(opt.threads, results.size()));
  std::size_t failed = 0;
  std::vector<std::string> records;
  records.reserve(results.size());
  for (const ConfigResult& r : results) {
    failed += r.error.empty() ? 0 : 1;
    records.push_back(config_result_json(r, /*include_wall=*/!opt.deterministic));
  }

  // Thread-scaling record, only on hosts that can demonstrate scaling
  // (see analysis/scaling_record.h for the single-core fallback rule) and
  // never in deterministic mode — it is host timing by definition.
  std::string scaling_json;
  if (!opt.deterministic) {
    SweepScaling scaling;
    scaling.hw_threads = std::thread::hardware_concurrency();
    scaling.threads = n_threads;
    // Only completed configurations count as work — errored configs burn
    // ~no wall clock and would inflate configs_per_sec.
    scaling.configs = results.size() - failed;
    scaling.sweep_seconds = sweep_s;
    scaling_json = scaling_record_json(scaling);
  }

  try {
    write_campaign_file(opt.out, records, scaling_json);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_runner: %s\n", e.what());
    return 1;
  }

  // Note: per-config wall_ms under thread oversubscription includes
  // scheduler interleaving; compare whole-sweep times across --threads
  // values to measure scaling.
  std::fprintf(stderr,
               "sweep_runner: %zu configs on %u threads in %.2fs "
               "(%.1f configs/sec), %zu failed\n",
               results.size(), n_threads, sweep_s,
               static_cast<double>(results.size()) / sweep_s, failed);
  return failed ? 1 : 0;
}
