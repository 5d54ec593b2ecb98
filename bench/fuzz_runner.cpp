// Coverage-guided attack-scenario fuzzer driver (src/fuzz/fuzzer.h).
//
// Evolves a population of Prime+Probe scenario genotypes against the
// configured defense cells, scores each candidate with the multi-symbol
// leakage estimator's permutation-test gate, and (optionally) archives
// the best find per cell — plus the defended "contrast" entries — as a
// replayable regression corpus (docs/fuzzing.md).
//
// Usage:
//   fuzz_runner [--seed S] [--generations G] [--population P]
//               [--workers N] [--defenses all|none,pipo,...]
//               [--llc inc|exc] [--slice-hash low|cas]
//               [--monitor-level l1|l2|llc]
//               [--perm-rounds R] [--p-threshold P]
//               [--corpus DIR]
//               [--out FILE] [--mutation-log FILE] [--genotypes FILE]
//               [--min-finds N] [--quiet]
//
// --out writes every campaign record (the same JSON array layout as
// sweep_runner, always deterministic — no host timing). --mutation-log
// and --genotypes dump the evolution history (the determinism test
// compares these byte for byte across worker counts). --min-finds N
// exits nonzero unless at least N cells produced a significant find —
// CI's fuzz-smoke job uses this to pin that the fuzzer still works from
// a cold start.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse_num.h"
#include "fabric/campaign.h"
#include "fuzz/fuzzer.h"

namespace {

using namespace pipo;

struct Options {
  FuzzerConfig fuzz;
  std::string corpus_dir;
  std::string out;
  std::string mutation_log;
  std::string genotypes;
  std::uint64_t min_finds = 0;
  bool quiet = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[i];
    };
    if (parse_axis_flag(arg, value, o.fuzz)) continue;
    if (arg == "--seed") {
      o.fuzz.seed = parse_uint(value(), "--seed");
    } else if (arg == "--generations") {
      o.fuzz.generations = parse_uint32(value(), "--generations", 1);
    } else if (arg == "--population") {
      o.fuzz.population = parse_uint32(value(), "--population", 4, 4096);
    } else if (arg == "--workers") {
      o.fuzz.workers = parse_uint32(value(), "--workers", 0, 256);
    } else if (arg == "--perm-rounds") {
      o.fuzz.perm_rounds = parse_uint32(value(), "--perm-rounds", 1);
    } else if (arg == "--p-threshold") {
      o.fuzz.p_threshold = parse_double(value(), "--p-threshold");
      if (o.fuzz.p_threshold <= 0.0 || o.fuzz.p_threshold > 1.0) {
        throw std::invalid_argument("--p-threshold wants (0, 1]");
      }
    } else if (arg == "--corpus") {
      o.corpus_dir = value();
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--mutation-log") {
      o.mutation_log = value();
    } else if (arg == "--genotypes") {
      o.genotypes = value();
    } else if (arg == "--min-finds") {
      o.min_finds = parse_uint(value(), "--min-finds");
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  return o;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines, const char* what) {
  std::ofstream f(path, std::ios::binary);
  for (const std::string& l : lines) f << l << "\n";
  f.close();
  if (!f) throw std::runtime_error(std::string("failed to write ") + what +
                                   " to " + path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options o = parse_args(argc, argv);
    if (!o.quiet) o.fuzz.progress = &std::cerr;

    // lint:allow(wall-clock) campaign wall timing, stderr progress only —
    // every byte of --out/--mutation-log/--genotypes is host-time-free
    const auto t0 = std::chrono::steady_clock::now();
    Fuzzer fuzzer(o.fuzz);
    const FuzzReport report = fuzzer.run();
    const auto t1 = std::chrono::steady_clock::now();  // lint:allow(wall-clock) stderr timing
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();

    if (!o.out.empty()) write_campaign_file(o.out, report.records);
    if (!o.mutation_log.empty()) {
      write_lines(o.mutation_log, report.mutation_log, "mutation log");
    }
    if (!o.genotypes.empty()) {
      write_lines(o.genotypes, report.genotype_stream, "genotype stream");
    }

    std::vector<std::string> notes;
    if (!o.corpus_dir.empty() && !report.best.empty()) {
      archive_fuzz_corpus(report, o.fuzz, o.corpus_dir, &notes);
    }

    if (!o.quiet) {
      std::fprintf(stderr,
                   "fuzz: %llu candidates, %llu evaluations in %.1fs "
                   "(%.1f cand/s), %llu significant, %llu novel "
                   "signatures, %llu failed\n",
                   static_cast<unsigned long long>(report.candidates),
                   static_cast<unsigned long long>(report.evaluations),
                   secs, secs > 0 ? report.candidates / secs : 0.0,
                   static_cast<unsigned long long>(report.significant),
                   static_cast<unsigned long long>(report.novel_signatures),
                   static_cast<unsigned long long>(report.failed));
      for (const FuzzFind& f : report.best) {
        std::fprintf(stderr, "find %s: mi=%.6f p=%.6f acc=%.6f %s\n",
                     f.cell.c_str(), f.mi_bits, f.p_value, f.decoder_acc,
                     f.genotype.to_string().c_str());
      }
      for (const std::string& n : notes) {
        std::fprintf(stderr, "corpus: %s\n", n.c_str());
      }
    }

    if (report.failed > 0) {
      std::fprintf(stderr, "fuzz: %llu configurations failed\n",
                   static_cast<unsigned long long>(report.failed));
      return 2;
    }
    if (report.best.size() < o.min_finds) {
      std::fprintf(stderr,
                   "fuzz: only %zu cells produced a significant find "
                   "(--min-finds %llu)\n",
                   report.best.size(),
                   static_cast<unsigned long long>(o.min_finds));
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_runner: %s\n", e.what());
    return 1;
  }
}
