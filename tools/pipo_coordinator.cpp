// Campaign coordinator CLI: serves a (mix x defense x seed) + trace
// campaign to pipo_worker processes over TCP and writes the merged,
// config-id-ordered JSON array — byte-identical to
// `sweep_runner --deterministic` on the same campaign flags, at any
// worker count and under any worker failure schedule (docs/fabric.md).
//
// Usage:
//   pipo_coordinator [--port P] [--port-file FILE]
//                    [--no-listen [--workers N]]
//                    [--lease-ms L] [--heartbeat-timeout-ms H]
//                    [--mixes a-b] [--defenses all|none,pipo,...]
//                    [--seeds K] [--instr M] [--ws-div D]
//                    [--llc inc|exc] [--slice-hash low|cas]
//                    [--monitor-level l1|l2|llc]
//                    [--trace PATH]... [--no-mixes] [--out FILE]
//                    [--verbose]
//
// --port 0 lets the kernel pick the port; --port-file writes the bound
// port (a line of digits) once listening — scripts wait for the file
// instead of racing the bind. --no-listen opens no socket and runs the
// campaign on N in-process threads (default 1) through run_campaign,
// writing the records `sweep_runner --deterministic` writes; so does a
// coordinator that cannot bind its port, on one thread, after a warning.
// To add this host's cores to a fleet, start pipo_worker processes on
// it. Exit status: 0 if every config succeeded, 1 if any produced an
// error record, 2 for usage errors and when the port file or the output
// cannot be written.
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/parse_num.h"
#include "fabric/campaign.h"
#include "fabric/coordinator.h"
#include "fabric/transport.h"

namespace {

using namespace pipo;

struct Options {
  CampaignSpec spec;
  CoordinatorOptions coord;
  bool listen = true;
  unsigned workers = 0;  ///< in-process threads under --no-listen
  std::string out;
  std::string port_file;
  std::vector<std::string> trace_paths;
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
    if (arg == "--port") {
      o.coord.port =
          static_cast<std::uint16_t>(parse_uint(value(), "--port", 0, 65535));
    } else if (arg == "--port-file") {
      o.port_file = value();
    } else if (arg == "--no-listen") {
      o.listen = false;
    } else if (arg == "--workers") {
      o.workers = parse_uint32(value(), "--workers", 0, 1024);
    } else if (arg == "--lease-ms") {
      o.coord.lease_ms = parse_uint(value(), "--lease-ms", 1);
    } else if (arg == "--heartbeat-timeout-ms") {
      o.coord.heartbeat_timeout_ms =
          parse_uint(value(), "--heartbeat-timeout-ms", 1);
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--verbose") {
      o.coord.verbose = true;
      if (Log::level() < LogLevel::kInfo) Log::level() = LogLevel::kInfo;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (o.listen && o.workers > 0) {
    throw std::invalid_argument(
        "--workers needs --no-listen; to add this host's cores to the "
        "fleet, start pipo_worker processes here");
  }
  return o;
}

/// The campaign on `threads` in-process threads: the records
/// `sweep_runner --deterministic` writes.
CampaignOutcome run_in_process(const CampaignSpec& spec, unsigned threads) {
  CampaignOutcome out;
  for (const ConfigResult& r : run_campaign(spec, threads)) {
    out.records.push_back(config_result_json(r, /*include_wall=*/false));
    out.failed += r.error.empty() ? 0 : 1;
  }
  return out;
}

/// Serves the campaign to pipo_worker processes, or runs it in process
/// when the listener cannot bind (a sandbox with no network).
CampaignOutcome serve(const Options& opt) {
  std::optional<Coordinator> coord;
  try {
    coord.emplace(opt.spec, opt.coord);
  } catch (const TransportError& e) {
    PIPO_LOG_WARN("coordinator: cannot listen (%s); degrading to "
                  "in-process workers",
                  e.what());
    return run_in_process(opt.spec, 1);
  }
  if (!opt.port_file.empty()) {
    std::FILE* pf = std::fopen(opt.port_file.c_str(), "w");
    if (!pf) throw std::runtime_error("cannot open " + opt.port_file);
    // A full disk surfaces at fclose's flush; a script waiting for the
    // port would otherwise wait on an empty file while we serve.
    const bool wrote = std::fprintf(pf, "%u\n", coord->port()) > 0;
    if (std::fclose(pf) != 0 || !wrote) {
      throw std::runtime_error("failed to write the port to " +
                               opt.port_file);
    }
  }
  std::fprintf(stderr, "pipo_coordinator: listening on port %u\n",
               coord->port());
  return coord->run();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
    opt.spec.scenarios = expand_trace_paths(opt.trace_paths);
    opt.spec.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipo_coordinator: %s\n", e.what());
    return 2;
  }

  try {
    const CampaignOutcome outcome =
        opt.listen ? serve(opt) : run_in_process(opt.spec, opt.workers);
    write_campaign_file(opt.out, outcome.records);

    std::fprintf(stderr,
                 "pipo_coordinator: %zu configs merged, %llu failed\n",
                 outcome.records.size(),
                 static_cast<unsigned long long>(outcome.failed));
    return outcome.failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipo_coordinator: %s\n", e.what());
    return 2;
  }
}
