// Classic Cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher, CoNEXT'14)
// as summarized in Section II-B of the paper. Serves two roles in this
// reproduction:
//   1. the baseline whose weaknesses motivate the Auto-Cuckoo filter —
//      insertions fail once MNK relocations are exhausted, and the manual
//      delete() operation enables the false-deletion attack of Section V-A;
//   2. the filter the Auto-Cuckoo filter is built from: both run
//      BucketArray::insert and differ only in what happens to the record
//      still in hand after MNK relocations (here: the stash).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "filter/bucket_array.h"
#include "filter/observer.h"

namespace pipo {

class CuckooFilter {
 public:
  explicit CuckooFilter(const FilterConfig& cfg,
                        FilterObserver* observer = nullptr)
      : array_(cfg),
        rng_(cfg.hash_seed ^ 0x8664F205C6A4F21Bull),
        observer_(observer ? observer : &null_observer()) {}

  /// Inserts x. Returns false when the relocation chain exceeds MNK kicks
  /// without finding a vacancy — a *failed* insert, the classic filter's
  /// defining limitation. Matching Fan et al.'s reference implementation,
  /// the fingerprint displaced by a failed chain is parked in a
  /// single-entry victim stash (so the filter never silently loses a
  /// record: no false negatives); while the stash is occupied the filter
  /// is "full" and further inserts fail immediately.
  bool insert(LineAddr x);

  /// True if a fingerprint matching x is present in either candidate
  /// bucket (subject to the filter's false positive rate).
  bool contains(LineAddr x) const;

  /// Deletes one entry matching x's fingerprint from its candidate
  /// buckets. Returns false when no such entry exists. This is the
  /// operation an adversary abuses via fingerprint collisions
  /// (Section V-A): deleting *their* colliding address removes the
  /// victim's record.
  bool erase(LineAddr x);

  double occupancy() const { return array_.occupancy(); }
  std::uint64_t size() const { return array_.valid_count(); }
  const BucketArray& array() const { return array_; }
  const FilterConfig& config() const { return array_.config(); }

  void clear() {
    array_.clear();
    stash_ = BucketArray::Leftover{};
  }

  // --- statistics ---
  std::uint64_t total_kicks() const { return total_kicks_; }
  std::uint64_t failed_inserts() const { return failed_inserts_; }

 private:
  /// True if the stash holds fingerprint `fp` displaced from b1 or b2.
  bool stash_matches(std::uint32_t fp, std::size_t b1, std::size_t b2) const;

  BucketArray array_;
  Rng rng_;
  FilterObserver* observer_;
  /// Single-entry victim stash (Fan et al. §4): the fingerprint a failed
  /// relocation chain left in hand and the candidate bucket it was
  /// displaced from; used while stash_.entry.valid.
  BucketArray::Leftover stash_;
  std::uint64_t total_kicks_ = 0;
  std::uint64_t failed_inserts_ = 0;
};

}  // namespace pipo
