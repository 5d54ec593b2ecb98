// Thread-scaling record for the sweep runner's JSON output.
//
// Scaling is a wall-clock speedup across worker threads, which only
// means something on a host with more than one hardware thread; on a
// single-threaded host a configs/sec number labeled as "scaling" would
// be noise dressed up as data. So the record degrades explicitly: on
// multi-core hosts the runner emits a scaling object (ready to append
// to BENCH_engine.json per docs/benchmarks.md); on single-threaded
// hosts it emits nothing, and the absence is the documented, tested
// behavior.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>

namespace pipo {

struct SweepScaling {
  unsigned hw_threads = 0;       ///< std::thread::hardware_concurrency()
  unsigned threads = 0;          ///< worker threads the sweep ran with
  std::size_t configs = 0;       ///< configurations executed
  double sweep_seconds = 0.0;    ///< whole-sweep wall clock
};

/// JSON object describing the sweep's thread scaling, or the empty
/// string when the host cannot demonstrate scaling (hw_threads <= 1)
/// or the sweep did no work.
inline std::string scaling_record_json(const SweepScaling& s) {
  if (s.hw_threads <= 1 || s.configs == 0 || s.sweep_seconds <= 0.0) {
    return {};
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"scaling\": {\"hw_threads\": %u, \"threads\": %u, "
                "\"configs\": %zu, \"sweep_seconds\": %.3f, "
                "\"configs_per_sec\": %.2f}}",
                s.hw_threads, s.threads, s.configs, s.sweep_seconds,
                static_cast<double>(s.configs) / s.sweep_seconds);
  return buf;
}

}  // namespace pipo
