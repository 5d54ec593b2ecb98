// Campaign coordinator: shards a campaign into config-id-keyed leases,
// serves them to pipo_worker processes over TCP, and merges their
// per-config JSON records into one deterministic output.
//
// Robustness contract (docs/fabric.md spells out each failure mode):
//
//  * Work is handed out as idempotent leases (fabric/lease_table.h) —
//    a crashed, hung or disconnected worker's configs are reassigned
//    when its leases expire or its connection drops, and duplicate
//    completions (retransmits, reassignment twins, injected frame
//    duplication) are deduped by config id. The merged output is
//    therefore byte-identical to a serial run at any worker count,
//    under any kill/restart schedule, and under an injected-fault
//    transport — the oracle tier pins exactly this.
//  * A connection that goes quiet past the heartbeat timeout, sends a
//    malformed frame, or closes is dropped and its leases released;
//    the campaign continues.
//  * No listener, no coordinator: a constructor that cannot bind throws
//    TransportError. A campaign without a fleet runs in process through
//    run_campaign (fabric/campaign.h), which writes the same records.
//  * Clean shutdown: once every config has a result the coordinator
//    broadcasts Shutdown, drains outbound bytes, and only then closes.
//
// The coordinator is single-threaded: one poll loop owns the listener,
// every connection, the lease table and the result store.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/campaign.h"

namespace pipo {

struct CoordinatorOptions {
  /// TCP listen port; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Lease deadline: a config not completed this long after its grant
  /// is reassigned (the holder may have died mid-run).
  std::uint64_t lease_ms = 60'000;
  /// A connection silent this long (no frames, not even heartbeats) is
  /// dropped and its leases released.
  std::uint64_t heartbeat_timeout_ms = 15'000;
  bool verbose = false;  ///< progress lines on stderr
};

struct CampaignOutcome {
  /// One rendered JSON record per config, in config-id order — exactly
  /// what write_campaign_records() serializes.
  std::vector<std::string> records;
  std::uint64_t failed = 0;  ///< configs that produced error records
};

class Coordinator {
 public:
  /// Validates the spec (and rejects capture campaigns — record_dir is
  /// standalone-only), then binds the listener. Throws
  /// std::invalid_argument, or TransportError when it cannot listen.
  Coordinator(CampaignSpec spec, CoordinatorOptions opt);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound listen port.
  std::uint16_t port() const { return port_; }

  /// Runs the campaign to completion: serves workers until every
  /// config has a result, then shuts down cleanly. Returns records in
  /// config-id order.
  CampaignOutcome run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

}  // namespace pipo
