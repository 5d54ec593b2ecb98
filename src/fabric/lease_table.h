// Idempotent lease table: the coordinator's source of truth for which
// configuration is pending, leased, or done.
//
// Config-id-keyed state machine (docs/fabric.md has the diagram):
//
//            acquire()                      complete(config)
//   PENDING ───────────► LEASED(lease_id, ─────────────────► DONE
//      ▲                 owner, deadline)                     │
//      │ expire(now) / release_owner(owner)                   │
//      └──────────────────────────────────┘     complete() again → deduped
//
// The invariants that make distributed execution safe:
//
//  * complete() is keyed by config id, not lease id — a completion is
//    accepted whether its lease is live, expired, or was reassigned to
//    another worker in the meantime (the worker did the work; the
//    result is valid either way). It returns true exactly once per
//    config: the first completion wins, every duplicate (retransmitted
//    result, twin completion of a reassigned lease, a FaultyTransport
//    duplication) returns false and is dropped by the caller. No config
//    is ever double-counted.
//  * expire()/release_owner() return a lease to PENDING so it can be
//    reassigned; they never touch DONE. No config is ever lost: any
//    config not DONE is either PENDING (assignable) or LEASED with a
//    deadline after which expire() makes it PENDING again.
//  * acquire() hands out the lowest pending config id with a fresh,
//    never-reused lease id, so grants are deterministic given the call
//    sequence and a stale grant can never be confused with a live one.
//
// Time is a caller-supplied millisecond clock (steady_clock in the
// coordinator, a virtual counter in tests), and the table does no
// locking — the coordinator's single-threaded poll loop is its only
// caller.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace pipo {

class LeaseTable {
 public:
  /// `num_configs` configs, all initially PENDING. `lease_ms` is the
  /// deadline granted to each lease (>= 1).
  LeaseTable(std::uint64_t num_configs, std::uint64_t lease_ms);

  struct Grant {
    std::uint64_t lease_id = 0;
    std::uint64_t config_id = 0;
  };

  /// Leases the lowest pending config to `owner`; nullopt when nothing
  /// is pending (all leased or done).
  std::optional<Grant> acquire(std::uint64_t owner, std::uint64_t now_ms);

  /// Records a completion for `config_id`. Returns true exactly once
  /// per config (the caller stores the result); false for duplicates
  /// (the caller drops it). Out-of-range ids return false.
  bool complete(std::uint64_t config_id);

  /// Returns every lease owned by `owner` to PENDING (the owner's
  /// connection died). Returns the number of leases released.
  std::uint64_t release_owner(std::uint64_t owner);

  /// Expires every lease whose deadline is <= now_ms, returning each to
  /// PENDING. Returns the number newly expired.
  std::uint64_t expire(std::uint64_t now_ms);

  /// Earliest live-lease deadline, or UINT64_MAX when nothing is
  /// leased — the coordinator's poll timeout.
  std::uint64_t next_deadline() const;

  bool done() const { return completed_ == configs_.size(); }
  std::uint64_t size() const { return configs_.size(); }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t pending() const { return pending_; }
  std::uint64_t leased() const {
    return configs_.size() - completed_ - pending_;
  }
  std::uint64_t lease_ms() const { return lease_ms_; }

 private:
  enum class State : std::uint8_t { kPending, kLeased, kDone };
  struct Entry {
    State state = State::kPending;
    std::uint64_t lease_id = 0;
    std::uint64_t owner = 0;
    std::uint64_t deadline_ms = 0;
  };

  std::vector<Entry> configs_;
  std::uint64_t lease_ms_;
  std::uint64_t next_lease_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t pending_ = 0;
  /// Scan cursor: config ids below this are never PENDING unless a
  /// lease was returned, which rewinds it — keeps acquire() amortized
  /// O(1) over a campaign instead of O(n) per grant.
  std::uint64_t scan_from_ = 0;
};

}  // namespace pipo
