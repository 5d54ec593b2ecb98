// workload_study: runs every Table III mix on baseline and PiPoMonitor
// machines, printing normalized performance and false-positive rates —
// a scaled-down interactive version of the Fig 8 benchmark.
//
// Usage: ./build/examples/workload_study [instructions_per_core]
#include <cstdio>
#include <cstdlib>

#include "common/parse_num.h"

#include "analysis/perf_experiment.h"
#include "workload/mixes.h"

int main(int argc, char** argv) try {
  using namespace pipo;
  const std::uint64_t budget =
      argc > 1 ? parse_uint(argv[1], "instructions_per_core", 1) : 300'000;

  std::printf("Table III mixes, %llu instructions/core "
              "(paper: 1B; see make_mix's ws_divisor and spec_profile() "
              "for scaling)\n\n",
              static_cast<unsigned long long>(budget));
  std::printf("%-6s %-38s %12s %12s %10s %8s\n", "mix", "components",
              "base cycles", "pipo cycles", "norm perf", "FP/Minst");

  double norm_sum = 0.0;
  for (unsigned m = 1; m <= num_mixes(); ++m) {
    const auto base = run_mix_perf(m, SystemConfig::baseline(), budget, 42);
    const auto pipo = run_mix_perf(m, SystemConfig::paper_default(), budget, 42);
    const double norm = static_cast<double>(base.exec_time) /
                        static_cast<double>(pipo.exec_time);
    norm_sum += norm;

    std::string components;
    for (const auto& name : mix_components(m)) {
      components += (components.empty() ? "" : "-") + name;
    }
    std::printf("mix%-3u %-38s %12llu %12llu %10.4f %8.1f\n", m,
                components.c_str(),
                static_cast<unsigned long long>(base.exec_time),
                static_cast<unsigned long long>(pipo.exec_time), norm,
                pipo.false_positives_per_mi);
  }
  std::printf("\naverage normalized performance: %.4f "
              "(paper: ~1.001, i.e. +0.1%%)\n",
              norm_sum / num_mixes());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "workload_study: %s\n", e.what());
  return 2;
}
