// The traced run: per-layer metrics from spans recorded around calls into
// each layer's public functions, taken from outside the program (no file
// under src/ changes). It is a separate run from the timed one, on the
// same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_math.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TracedResult {
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t traced_configs = 0;
  /// Configs whose traced live run, fresh-System replay and standalone
  /// monitor replay each reproduced the untraced run.
  std::uint64_t live_pass = 0, system_pass = 0, monitor_pass = 0;
  std::string digest;  ///< over the untraced pass's records
  SpanCost span_cost;
  double log_ns = 0;   ///< cost of logging one completed access
  std::vector<Metric> metrics;
};

/// Runs the traced pass of `p` and writes its spans to `span_file`.
/// `work_dir` holds the fuzz workload's per-worker capture directories.
TracedResult run_traced(const Prepared& p, const std::string& work_dir,
                        const std::string& span_file);

}  // namespace perfbench
