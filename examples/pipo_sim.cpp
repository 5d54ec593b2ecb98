// pipo_sim — command-line front end for the simulator: run a Table III
// mix, a recorded trace, or the Fig 6 attack experiment on a configurable
// machine and dump the full statistics. The "gem5 config script" of this
// reproduction.
//
// Usage:
//   pipo_sim mix <1..10> [--instr N] [--ws-div D] [--no-defense]
//            [--defense none|pipo|dir|sharp|bitp|ric] [--l L] [--b B]
//            [--secthr T] [--mnk K] [--seed S]
//            [--record DIR] [--record-format text|framed]
//   pipo_sim trace <file|dir> [--core C] [--no-defense] [...]
//   pipo_sim attack [--iters N] [--interval T] [--no-defense] [...]
//
// Flags may come in any order: --defense (and --no-defense, the same as
// --defense none) picks only the defense and keeps the other machine
// flags, whichever side of it they are given on.
//
// `mix --record DIR` captures each core's consumed request stream to
// DIR/core<i>.trace; `trace` replays a single file on --core (default
// 0) or a whole captured directory of core<i>.trace files across all
// cores, streaming any trace format with one frame's payload or text
// line in memory (docs/traces.md). A replayed capture reproduces the live run's stats
// byte-identically.
//
// Examples:
//   pipo_sim mix 1 --instr 2000000 --ws-div 16
//   pipo_sim mix 1 --record rec --record-format framed
//   pipo_sim trace rec
//   pipo_sim attack --iters 100
//   pipo_sim trace probe.trace --defense dir
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <filesystem>

#include "analysis/perf_experiment.h"
#include "attack/attack_experiment.h"
#include "attack/victim.h"
#include "common/parse_num.h"
#include "fabric/campaign.h"  // parse_defense
#include "sim/simulation.h"
#include "workload/mixes.h"
#include "workload/trace_codec.h"  // TraceFormat

namespace {

using namespace pipo;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: pipo_sim mix <1..10> | trace <file|dir> | attack "
               "[options]\n"
               "options: --instr N --ws-div D --core C --iters N "
               "--interval T\n"
               "         --defense none|pipo|dir|sharp|bitp|ric\n"
               "         --no-defense (= --defense none)\n"
               "         --l L --b B --secthr T --mnk K --seed S\n"
               "         --record DIR --record-format text|framed "
               "(mix only)\n");
  std::exit(2);
}

struct Options {
  std::uint64_t instr = 1'000'000;
  std::uint64_t ws_div = 16;
  CoreId core = 0;
  bool core_set = false;  ///< --core given explicitly
  std::uint32_t iters = 100;
  Tick interval = 5000;
  std::string record_dir;
  TraceFormat record_format = TraceFormat::kTextV1;
  SystemConfig system = SystemConfig::paper_default();
};

Options parse_options(int argc, char** argv, int first) {
  Options o;
  // Applied after the loop, so a defense flag cannot reset the machine
  // flags given before it.
  DefenseKind defense = o.system.defense;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage();
      }
      return argv[++i];
    };
    if (a == "--instr") {
      o.instr = parse_uint(need("--instr"), "--instr", 1);
    } else if (a == "--ws-div") {
      o.ws_div = parse_uint(need("--ws-div"), "--ws-div", 1);
    } else if (a == "--core") {
      o.core = static_cast<CoreId>(
          parse_uint32(need("--core"), "--core", 0, 1023));
      o.core_set = true;
    } else if (a == "--iters") {
      o.iters = parse_uint32(need("--iters"), "--iters", 1);
    } else if (a == "--interval") {
      o.interval = parse_uint(need("--interval"), "--interval", 1);
    } else if (a == "--no-defense") {
      defense = DefenseKind::kNone;
    } else if (a == "--defense") {
      defense = parse_defense(need("--defense"));
    } else if (a == "--l") {
      o.system.monitor.filter.l =
          parse_uint32(need("--l"), "--l", 1);
    } else if (a == "--b") {
      o.system.monitor.filter.b =
          parse_uint32(need("--b"), "--b", 1);
    } else if (a == "--secthr") {
      o.system.monitor.filter.sec_thr =
          parse_uint32(need("--secthr"), "--secthr", 1);
    } else if (a == "--mnk") {
      o.system.monitor.filter.mnk =
          parse_uint32(need("--mnk"), "--mnk", 1);
    } else if (a == "--seed") {
      o.system.seed = parse_uint(need("--seed"), "--seed");
    } else if (a == "--record") {
      o.record_dir = need("--record");
    } else if (a == "--record-format") {
      const auto fmt = parse_trace_format(need("--record-format"));
      if (!fmt) {
        std::fprintf(stderr, "--record-format must be text|framed\n");
        usage();
      }
      o.record_format = *fmt;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      usage();
    }
  }
  o.system.defense = defense;
  o.system.monitor.enabled = defense == DefenseKind::kPiPoMonitor;
  return o;
}

void dump_system(const System& sys, std::uint64_t instructions) {
  std::ostringstream os;
  sys.stats().dump(os);
  std::printf("%s", os.str().c_str());
  std::printf("defense               %s\n", to_string(sys.config().defense));
  std::printf("instructions          %llu\n",
              static_cast<unsigned long long>(instructions));
  if (sys.config().defense == DefenseKind::kPiPoMonitor) {
    const auto& m = sys.monitor();
    std::printf("monitor accesses      %llu\n",
                static_cast<unsigned long long>(m.accesses()));
    std::printf("monitor captures      %llu\n",
                static_cast<unsigned long long>(m.captures()));
    std::printf("monitor prefetches    %llu\n",
                static_cast<unsigned long long>(m.prefetches_issued()));
    std::printf("filter occupancy      %.3f\n", m.filter().occupancy());
    std::printf("autonomic deletions   %llu\n",
                static_cast<unsigned long long>(
                    m.filter().autonomic_deletions()));
  }
}

int run_mix_cmd(int argc, char** argv) {
  if (argc < 3) usage();
  const unsigned mix = parse_uint32(argv[2], "mix", 1, num_mixes());
  const Options o = parse_options(argc, argv, 3);
  const TraceCapture capture{o.record_dir, o.record_format};
  const auto r = run_mix_perf(mix, o.system, o.instr, o.system.seed,
                              o.ws_div,
                              o.record_dir.empty() ? nullptr : &capture);
  std::printf("mix%u on %s, %llu instructions/core (working sets /%llu)\n\n",
              mix, to_string(o.system.defense),
              static_cast<unsigned long long>(o.instr),
              static_cast<unsigned long long>(o.ws_div));
  if (!o.record_dir.empty()) {
    std::printf("recorded %s traces to %s/core<i>.trace\n",
                to_string(o.record_format), o.record_dir.c_str());
  }
  std::printf("execution time        %llu cycles\n",
              static_cast<unsigned long long>(r.exec_time));
  std::printf("false positives / Mi  %.1f\n", r.false_positives_per_mi);
  std::ostringstream os;
  r.stats.dump(os);
  std::printf("%s", os.str().c_str());
  return 0;
}

int run_trace_cmd(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string path = argv[2];
  const Options o = parse_options(argc, argv, 3);
  Simulation sim(o.system);
  if (std::filesystem::is_directory(path) && o.core_set) {
    // Scenario directories wire core<i>.trace to core i; honoring
    // --core silently would replay a different wiring than asked for.
    std::fprintf(stderr,
                 "--core applies to single-file traces only; a scenario "
                 "directory assigns core<i>.trace to core i\n");
    return 2;
  }
  // Same loading rules (and out-of-range/garbage-name validation) as
  // run_trace_perf / sweep_runner; --core picks the single-file target.
  const std::uint32_t driven = assign_trace_scenario(sim, path, o.core);
  std::printf("replaying %s on %u core(s) (%s), streaming\n\n",
              path.c_str(), driven, to_string(o.system.defense));
  const Tick end = sim.run();
  std::printf("finished at tick      %llu\n",
              static_cast<unsigned long long>(end));
  dump_system(sim.system(), sim.total_instructions());
  return 0;
}

int run_attack_cmd(int argc, char** argv) {
  const Options o = parse_options(argc, argv, 2);
  PrimeProbeExperimentConfig cfg;
  cfg.system = o.system;
  cfg.iterations = o.iters;
  cfg.interval = o.interval;
  cfg.key = make_test_key(o.iters, 0xA77AC4);
  const auto r = run_prime_probe_experiment(cfg);
  std::printf("Prime+Probe on %s, %u iterations @ %llu cycles\n\n",
              to_string(o.system.defense), o.iters,
              static_cast<unsigned long long>(o.interval));
  std::printf("key bits  ");
  for (bool b : r.truth_multiply) std::printf("%c", b ? '1' : '0');
  std::printf("\nsquare    ");
  for (bool b : r.observed[0]) std::printf("%c", b ? '*' : '.');
  std::printf("\nmultiply  ");
  for (bool b : r.observed[1]) std::printf("%c", b ? '*' : '.');
  std::printf("\n\nkey-recovery accuracy %.1f%%\n", 100 * r.key_accuracy);
  std::printf("monitor captures      %llu\n",
              static_cast<unsigned long long>(r.monitor_captures));
  std::printf("monitor prefetches    %llu\n",
              static_cast<unsigned long long>(r.monitor_prefetches));
  std::ostringstream os;
  r.system_stats.dump(os);
  std::printf("%s", os.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  try {
    if (std::strcmp(argv[1], "mix") == 0) return run_mix_cmd(argc, argv);
    if (std::strcmp(argv[1], "trace") == 0) return run_trace_cmd(argc, argv);
    if (std::strcmp(argv[1], "attack") == 0) {
      return run_attack_cmd(argc, argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipo_sim: %s\n", e.what());
    return 1;
  }
  usage();
}
