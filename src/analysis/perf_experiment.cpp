#include "analysis/perf_experiment.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/simulation.h"
#include "workload/mixes.h"
#include "workload/stream_trace.h"
#include "workload/trace.h"

namespace pipo {

namespace {

MixPerfResult collect(Simulation& sim, unsigned mix_number) {
  MixPerfResult r;
  r.mix = mix_number;
  r.exec_time = sim.run();
  r.instructions = sim.total_instructions();
  r.prefetches = sim.system().monitor().prefetches_issued();
  r.captures = sim.system().monitor().captures();
  r.false_positives_per_mi =
      r.instructions
          ? static_cast<double>(r.prefetches) * 1e6 / r.instructions
          : 0.0;
  r.stats = sim.system().stats();
  return r;
}

std::string core_trace_path(const std::string& dir, CoreId core) {
  return dir + "/core" + std::to_string(core) + ".trace";
}

}  // namespace

bool is_core_trace_name(const std::string& filename, std::string* digits) {
  constexpr std::size_t kPrefix = 4;  // "core"
  constexpr std::size_t kSuffix = 6;  // ".trace"
  if (filename.size() < kPrefix + 1 + kSuffix ||
      filename.rfind("core", 0) != 0 ||
      filename.substr(filename.size() - kSuffix) != ".trace") {
    return false;
  }
  const std::string d =
      filename.substr(kPrefix, filename.size() - kPrefix - kSuffix);
  if (d.find_first_not_of("0123456789") != std::string::npos) return false;
  if (digits) *digits = d;
  return true;
}

MixPerfResult run_mix_perf(unsigned mix_number, const SystemConfig& config,
                           std::uint64_t instr_budget, std::uint64_t seed,
                           std::uint64_t ws_divisor,
                           const TraceCapture* capture) {
  Simulation sim(config);
  auto workloads = make_mix(mix_number, instr_budget, seed, ws_divisor);
  const CoreId assigned = static_cast<CoreId>(
      std::min<std::size_t>(config.num_cores, workloads.size()));
  for (CoreId c = 0; c < assigned; ++c) {
    sim.set_workload(c, std::move(workloads[c]));
  }
  std::vector<TraceRecorder*> recorders;  // owned by the Simulation
  if (capture) {
    std::filesystem::create_directories(capture->dir);
    for (CoreId c = 0; c < assigned; ++c) {
      sim.wrap_workload(c, [&](std::unique_ptr<Workload> inner) {
        auto rec = std::make_unique<TraceRecorder>(
            std::move(inner), core_trace_path(capture->dir, c),
            capture->format);
        recorders.push_back(rec.get());
        return rec;
      });
    }
  }
  const MixPerfResult r = collect(sim, mix_number);
  // Explicit finish: a capture truncated by a failed write (full disk)
  // must throw, not return as a successful recording — the recorder
  // destructors flush too but have to swallow errors.
  for (TraceRecorder* rec : recorders) rec->finish();
  return r;
}

namespace {

/// Opens one scenario trace file as a streaming workload, rejecting
/// zero-request files up front: a core<i>.trace truncated to nothing
/// (or to a bare binary header) would otherwise replay as a silently
/// idle core and skew every scenario stat. Direct codec users
/// (load_trace_auto and friends) keep the permissive behavior.
std::unique_ptr<StreamingTraceWorkload> open_scenario_trace(
    const std::string& file) {
  auto w = std::make_unique<StreamingTraceWorkload>(file);
  if (!w->has_requests()) {
    throw std::runtime_error(
        "trace file holds zero requests (empty or truncated capture?): " +
        file);
  }
  return w;
}

}  // namespace

std::uint32_t assign_trace_scenario(Simulation& sim,
                                    const std::string& path,
                                    CoreId single_file_core) {
  namespace fs = std::filesystem;
  const std::uint32_t num_cores = sim.num_cores();
  std::vector<bool> driven(num_cores, false);
  std::uint32_t n_driven = 0;
  if (fs::is_directory(path)) {
    // A core<i>.trace for a core this simulation does not have must be
    // an error, not a silent drop — the replay would otherwise report
    // plausible but divergent stats.
    for (const auto& entry : fs::directory_iterator(path)) {
      std::string digits;
      if (!is_core_trace_name(entry.path().filename().string(), &digits)) {
        continue;
      }
      // > 9 digits cannot be a valid core id (and would overflow stoul);
      // num_cores doubles as the out-of-range sentinel.
      const unsigned long core_id =
          digits.size() > 9
              ? num_cores
              // lint:allow(raw-parse) prevalidated by is_core_trace_name()
              : std::stoul(digits);
      if (core_id >= num_cores) {
        throw std::runtime_error(
            "scenario drives core " + digits + " but the simulation has " +
            std::to_string(num_cores) + " cores: " + entry.path().string());
      }
      // The assignment loop below probes the canonical (unpadded) name
      // only; a zero-padded core01.trace would validate here yet never
      // load — exactly the silent drop this loop exists to prevent.
      if (std::to_string(core_id) != digits) {
        throw std::runtime_error(
            "non-canonical core trace name (want core" +
            std::to_string(core_id) + ".trace): " + entry.path().string());
      }
    }
    for (CoreId c = 0; c < num_cores; ++c) {
      const std::string file = core_trace_path(path, c);
      if (!fs::exists(file)) continue;
      sim.set_workload(c, open_scenario_trace(file));
      driven[c] = true;
      ++n_driven;
    }
    if (n_driven == 0) {
      throw std::runtime_error("no core<i>.trace files in directory: " +
                               path);
    }
  } else {
    if (single_file_core >= num_cores) {
      throw std::runtime_error(
          "trace target core " + std::to_string(single_file_core) +
          " out of range (simulation has " + std::to_string(num_cores) +
          " cores)");
    }
    sim.set_workload(single_file_core, open_scenario_trace(path));
    driven[single_file_core] = true;
    n_driven = 1;
  }
  for (CoreId c = 0; c < num_cores; ++c) {
    if (!driven[c]) sim.set_workload(c, std::make_unique<IdleWorkload>());
  }
  return n_driven;
}

MixPerfResult run_trace_perf(const std::string& path,
                             const SystemConfig& config) {
  Simulation sim(config);
  assign_trace_scenario(sim, path);
  return collect(sim, 0);
}

}  // namespace pipo
