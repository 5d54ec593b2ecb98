// perfbench: the pinned end-to-end benchmark of the simulator.
//
//   perfbench --workload sweep|replay|fuzz|all [--seed N] [--seconds S]
//             [--trace 0|1] [--work-dir DIR] [--digests FILE]
//
// --trace 0 times the workload with nothing installed and prints the
// end-to-end metrics; --trace 1 is the separate traced run that prints
// the per-layer metrics. A human-readable report goes first; the last
// line of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}. perfbench/run.py builds this binary and runs it; the
// workloads and metrics are documented in perfbench/README.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_math.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Options {
  std::vector<Kind> kinds;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/work";
  std::string digests = "perfbench/digests.txt";
};

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') {
    throw std::invalid_argument(flag + " wants a whole number, got '" + v + "'");
  }
  return x;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[i];
    };
    if (arg == "--workload") {
      if (!o.kinds.empty()) throw std::invalid_argument("--workload given twice");
      const std::string w = value();
      if (w == "all") {
        o.kinds = {Kind::kSweep, Kind::kReplay, Kind::kFuzz};
      } else if (w == "sweep") {
        o.kinds = {Kind::kSweep};
      } else if (w == "replay") {
        o.kinds = {Kind::kReplay};
      } else if (w == "fuzz") {
        o.kinds = {Kind::kFuzz};
      } else {
        throw std::invalid_argument("unknown workload '" + w +
                                    "' (sweep|replay|fuzz|all)");
      }
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, value());
      o.seed_given = true;
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(arg, value()));
    } else if (arg == "--trace") {
      const std::uint64_t t = parse_u64(arg, value());
      if (t > 1) throw std::invalid_argument("--trace wants 0 or 1");
      o.trace = t == 1;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--digests") {
      o.digests = value();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (o.kinds.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Set-up is repeated and the median of all repetitions reported, so a
/// change that moves work into set-up shows as a stable number. Each is
/// timed as the process CPU time it takes (all threads), scaled to the
/// nominal host speed by a yardstick burst right after it. The first
/// repetition counts from process start and carries the one-time cold
/// costs; it is also printed on its own.
constexpr int kSetupReps = 5;

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

void print_metric(const Metric& m, const std::string& note = {}) {
  std::printf("  %-34s %14.6g %-10s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

/// `start_cpu_ns`: process CPU time when this workload's first set-up
/// began (0, process start, for the first workload of the run).
RunOutput run_workload(Kind kind, const Options& o,
                       std::int64_t start_cpu_ns) {
  const std::uint64_t seed = o.seed_given ? o.seed : default_seed(kind);
  std::vector<double> setup_s, setup_raw_s;
  Prepared p;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t c0 = rep == 0 ? start_cpu_ns : process_cpu_ns();
    p = setup(kind, seed, o.work_dir);
    const auto cpu = static_cast<double>(process_cpu_ns() - c0);
    setup_raw_s.push_back(cpu / 1e9);
    setup_s.push_back(
        at_nominal_speed(cpu, median(yardstick_burst(p.threads))) / 1e9);
  }
  std::printf("workload %s  seed %llu  threads %u  %s\n", kind_name(kind),
              static_cast<unsigned long long>(seed), p.threads,
              o.trace ? "traced run" : "timed run");
  std::fflush(stdout);
  const std::string seen_file = o.work_dir + "/seen-digests.txt";
  RunOutput out;
  std::string status;

  if (o.trace) {
    const std::string span_file = o.work_dir + "/spans-" + kind_name(kind) +
                                  "-s" + std::to_string(seed) + ".tsv";
    const TracedResult t = run_traced(p, o.work_dir, span_file);
    const bool digest_ok =
        check_digest(kind, seed, t.digest, o.digests, seen_file, &status);
    out.attempted = t.attempted;
    out.failed = digest_ok ? t.failed : t.attempted;
    out.correct = out.failed == 0;
    out.metrics = t.metrics;
    std::printf("  span cost: %.1f ns inside a span, %.1f ns per span to its "
                "parent, %.1f ns per logged access (subtracted)\n",
                t.span_cost.inner_ns, t.span_cost.total_ns, t.log_ns);
    std::printf("  self-checks on %llu traced configs: live %llu, fresh "
                "System %llu, monitor %llu pass\n",
                static_cast<unsigned long long>(t.traced_configs),
                static_cast<unsigned long long>(t.live_pass),
                static_cast<unsigned long long>(t.system_pass),
                static_cast<unsigned long long>(t.monitor_pass));
    for (const Metric& m : out.metrics) print_metric(m);
    std::printf("  digest %s: %s\n  spans written to %s\n", t.digest.c_str(),
                status.c_str(), span_file.c_str());
    return out;
  }

  const TimedResult r = run_timed(p, o.seconds);
  const bool digest_ok =
      check_digest(kind, seed, r.digest, o.digests, seen_file, &status);
  out.attempted = r.attempted;
  out.failed = digest_ok ? r.failed : r.attempted;
  out.correct = out.failed == 0;
  const Tail tail = tail_percentile(r.config_ms);
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%g of %zu configs",
                tail.percentile, tail.samples);
  const double configs = static_cast<double>(r.configs);
  out.metrics = {
      {"configs_per_cpu_s", configs / r.scaled_cpu_s, "configs/cpu-s"},
      {"config_ms_p50", median(r.config_ms), "ms"},
      {"config_ms_tail", tail.value, "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  std::printf("  host speed: yardstick median %.3f ms over %zu runs "
              "(nominal %.3f ms); CPU times below are scaled to nominal\n",
              median(r.yardstick_ms), r.yardstick_ms.size(),
              kYardstickNominalNs / 1e6);
  char note[128];
  std::snprintf(note, sizeof note,
                "%llu configs, %u round(s); as measured %.4g",
                static_cast<unsigned long long>(r.configs), r.rounds,
                configs / r.cpu_s);
  print_metric(out.metrics[0], note);
  // Wall-time throughput, what a user waits for; not bounded, because on
  // a shared host it moves with the host's speed and with how long the
  // workers wait for a CPU.
  std::snprintf(note, sizeof note, "configs / %.2f s wall (unbounded)",
                r.wall_s);
  print_metric({"configs_per_s", configs / r.wall_s, "configs/s"}, note);
  if (kind == Kind::kFuzz) {
    print_metric({"candidates_per_s",
                  static_cast<double>(r.candidates) / r.wall_s,
                  "candidates/s"},
                 "genotypes evaluated / wall (unbounded)");
  }
  print_metric(out.metrics[1], "CPU time of one config");
  print_metric(out.metrics[2], tail_note);
  std::snprintf(note, sizeof note,
                "CPU, median of %zu set-ups (as measured %.3f); the first, "
                "from process start: %.3f",
                setup_s.size(), median(setup_raw_s), setup_s[0]);
  print_metric(out.metrics[3], note);
  print_metric(out.metrics[4]);
  std::snprintf(note, sizeof note, "%llu failed of %llu attempted",
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
  print_metric({"error_rate",
                ratio(static_cast<double>(out.failed),
                      static_cast<double>(out.attempted)),
                "ratio"},
               note);
  std::printf("  digest %s: %s\n", r.digest.c_str(), status.c_str());
  return out;
}

void print_json(const RunOutput& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    RunOutput all;
    for (Kind k : o.kinds) {
      const RunOutput one =
          run_workload(k, o, all.metrics.empty() ? 0 : process_cpu_ns());
      all.correct = all.correct && one.correct;
      all.attempted += one.attempted;
      all.failed += one.failed;
      const std::string prefix =
          o.kinds.size() > 1 ? std::string(kind_name(k)) + "." : "";
      for (const Metric& m : one.metrics) {
        all.metrics.push_back({prefix + m.name, m.value, m.unit});
      }
    }
    print_json(all);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
