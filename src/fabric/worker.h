// Fabric worker: connects to a coordinator, pulls config leases, runs
// each configuration through the existing Simulation engine, and
// streams the rendered JSON record back.
//
// Robustness behavior (the part this header exists to pin down):
//
//  * Reconnect with capped exponential backoff + deterministic jitter
//    (seeded — tests replay the exact schedule). A connection lost for
//    any reason (refused, reset, truncated frame, malformed bytes,
//    recv timeout) costs one attempt; attempts reset after a
//    successful handshake, and the worker gives up after
//    max_reconnects consecutive failures.
//  * A computed result survives reconnects: if the send fails, the
//    worker re-sends the same Result after the next handshake — the
//    coordinator's lease table dedupes if the config was meanwhile
//    re-run elsewhere. Work is never silently discarded.
//  * A heartbeat thread keeps the connection visibly alive while the
//    main thread is deep inside a long simulation, so the coordinator
//    can tell "busy" from "dead".
//  * Controlled-crash hooks (die_after_grants / die_after_results)
//    exist for the fault-injection proof layer and the CI kill test:
//    they make the worker vanish at the two interesting instants —
//    holding an unfinished lease, and right after completing one.
#pragma once

#include <cstdint>
#include <string>

#include "fabric/transport.h"

namespace pipo {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Fault injection applied to every dialed link (FaultSpec::any()).
  FaultSpec faults;

  std::uint64_t seed = 1;  ///< backoff jitter stream
  std::uint64_t backoff_base_ms = 50;
  std::uint64_t backoff_max_ms = 2000;
  unsigned max_reconnects = 64;  ///< consecutive failures before giving up
  std::uint64_t heartbeat_ms = 1000;
  /// How long to wait for the coordinator's reply to a handshake or
  /// lease request before treating the connection as dead.
  int recv_timeout_ms = 30'000;

  // --- controlled-crash hooks (tests / fault drills) ---
  /// Exit (code 3) immediately after receiving the Nth lease grant,
  /// without running or completing it — the lease must expire and be
  /// reassigned. 0 = never.
  std::uint64_t die_after_grants = 0;
  /// Exit (code 3) right after the Nth Result frame is sent — an
  /// abrupt close with no Shutdown handshake. 0 = never.
  std::uint64_t die_after_results = 0;
};

class Worker {
 public:
  explicit Worker(WorkerOptions opt);

  /// Runs until the coordinator sends Shutdown (returns 0), reconnect
  /// attempts are exhausted (returns 1), or a controlled-crash hook
  /// fires (returns 3).
  int run();

  std::uint64_t configs_run() const { return configs_run_; }
  std::uint64_t reconnects() const { return reconnects_; }
  std::uint64_t worker_id() const { return worker_id_; }

 private:
  WorkerOptions opt_;
  std::uint64_t worker_id_ = 0;
  std::uint64_t configs_run_ = 0;
  std::uint64_t reconnects_ = 0;
};

}  // namespace pipo
