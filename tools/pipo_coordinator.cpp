// Campaign coordinator CLI: serves a (mix x defense x seed) + trace
// campaign to pipo_worker processes over TCP and writes the merged,
// config-id-ordered JSON array — byte-identical to
// `sweep_runner --deterministic` on the same campaign flags, at any
// worker count and under any worker failure schedule (docs/fabric.md).
//
// Usage:
//   pipo_coordinator [--port P] [--port-file FILE] [--workers N]
//                    [--lease-ms L] [--heartbeat-timeout-ms H]
//                    [--mixes a-b] [--defenses all|none,pipo,...]
//                    [--seeds K] [--instr M] [--ws-div D]
//                    [--llc inc|exc] [--slice-hash low|cas]
//                    [--monitor-level l1|l2|llc]
//                    [--trace PATH]... [--no-mixes] [--out FILE]
//                    [--verbose]
//
// --workers N runs N in-process worker threads alongside (or instead
// of) the fleet; with --port 0 and no --port-file the kernel still
// picks a port, so pass --no-listen to run purely in-process.
// --port-file writes the bound port (a line of digits) once listening —
// scripts wait for the file instead of racing the bind. Exit status: 0
// if every config succeeded, 1 if any produced an error record, 2 for
// usage errors.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/parse_num.h"
#include "fabric/campaign.h"
#include "fabric/coordinator.h"

namespace {

using namespace pipo;

struct Options {
  CampaignSpec spec;
  CoordinatorOptions coord;
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
      o.coord.listen = false;
    } else if (arg == "--workers") {
      o.coord.local_workers = parse_uint32(value(), "--workers", 0, 1024);
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
    std::fprintf(stderr, "pipo_coordinator: %s\n", e.what());
    return 2;
  }

  try {
    Coordinator coord(opt.spec, opt.coord);
    if (!opt.port_file.empty()) {
      std::FILE* pf = std::fopen(opt.port_file.c_str(), "w");
      if (!pf) {
        std::fprintf(stderr, "pipo_coordinator: cannot open %s\n",
                     opt.port_file.c_str());
        return 2;
      }
      std::fprintf(pf, "%u\n", coord.port());
      std::fclose(pf);
    }
    if (coord.port() != 0) {
      std::fprintf(stderr, "pipo_coordinator: listening on port %u\n",
                   coord.port());
    }

    const CampaignOutcome outcome = coord.run();

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
