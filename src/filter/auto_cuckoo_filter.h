// The Auto-Cuckoo filter — the paper's core data structure (Sections IV
// and V).
//
// Differences from the classic Cuckoo filter:
//
//  * The single `access()` operation fuses Query and Insert exactly as the
//    PiPoMonitor hardware drives it: a hit increments the entry's Security
//    saturating counter and returns it (the Response); a miss inserts a
//    fresh entry with Security = 0 and returns 0.
//
//  * Insertion never fails. When the relocation chain reaches MNK kicks,
//    the filter *autonomically deletes* the fingerprint that would need
//    the (MNK+1)-th relocation. Because each kick selects a random victim
//    whose alternate bucket differs per fingerprint, the eventually
//    dropped record is drawn from an exponentially growing candidate set
//    (b^(MNK+1) — Section VI-B), which defeats eviction-set construction.
//
//  * There is deliberately NO manual erase(): the classic filter's delete
//    is the false-deletion attack surface of Section V-A, and the
//    PiPoMonitor hardware never needs it.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "common/types.h"
#include "filter/bucket_array.h"
#include "filter/observer.h"

namespace pipo {

class AutoCuckooFilter {
 public:
  /// The Response returned to PiPoMonitor for one Access.
  struct Response {
    std::uint32_t security = 0;  ///< Security value after this Access
    bool existed = false;        ///< entry was already present (reAccess)
    bool ping_pong = false;      ///< security >= secThr: Ping-Pong captured
  };

  explicit AutoCuckooFilter(const FilterConfig& cfg,
                            FilterObserver* observer = nullptr)
      : array_(cfg),
        rng_(cfg.hash_seed ^ 0x2545F4914F6CDD1Dull),
        observer_(observer ? observer : &null_observer()) {}

  /// One Access x (Section IV, "Capturing Ping-Pong lines"):
  /// look up xi_x in buckets mu_x, sigma_x; on hit, saturating-increment
  /// Security and return it; on miss, insert a new entry (never fails)
  /// with Security = 0 and return 0.
  Response access(LineAddr x);

  /// Read-only membership probe (no Security side effects). Not part of
  /// the hardware interface; used by tests and the attack analyses.
  bool contains(LineAddr x) const;

  /// Security value of x's entry, if present. Test/analysis hook.
  std::optional<std::uint32_t> security_of(LineAddr x) const;

  double occupancy() const { return array_.occupancy(); }
  std::uint64_t size() const { return array_.valid_count(); }
  const BucketArray& array() const { return array_; }
  const FilterConfig& config() const { return array_.config(); }

  void clear() { array_.clear(); }

  // --- statistics (for the evaluation harnesses) ---
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t new_entries() const { return new_entries_; }
  std::uint64_t total_kicks() const { return total_kicks_; }
  std::uint64_t autonomic_deletions() const { return autonomic_deletions_; }
  std::uint64_t ping_pong_captures() const { return ping_pong_captures_; }

 private:
  BucketArray array_;
  Rng rng_;
  FilterObserver* observer_;

  std::uint64_t accesses_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t new_entries_ = 0;
  std::uint64_t total_kicks_ = 0;
  std::uint64_t autonomic_deletions_ = 0;
  std::uint64_t ping_pong_captures_ = 0;
};

}  // namespace pipo
