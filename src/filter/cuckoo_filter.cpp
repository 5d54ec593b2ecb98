#include "filter/cuckoo_filter.h"

namespace pipo {

bool CuckooFilter::insert(LineAddr x) {
  // While the victim stash is occupied the filter is declared full (the
  // reference implementation's behaviour) — further inserts fail without
  // disturbing resident records.
  if (stash_.entry.valid) {
    ++failed_inserts_;
    return false;
  }

  const auto [fp, b1, b2] = array_.candidates(x);
  observer_->on_insert_start(x);
  const BucketArray::Leftover left =
      array_.insert(fp, b1, b2, rng_, *observer_, total_kicks_);
  if (!left.entry.valid) return true;

  // MNK exhausted: the displaced fingerprint parks in the stash, with
  // the bucket it was displaced from (one of its candidate buckets), and
  // the insert reports failure.
  stash_ = left;
  ++failed_inserts_;
  return false;
}

bool CuckooFilter::stash_matches(std::uint32_t fp, std::size_t b1,
                                 std::size_t b2) const {
  return stash_.entry.valid && stash_.entry.fprint == fp &&
         (stash_.bucket == b1 || stash_.bucket == b2);
}

bool CuckooFilter::contains(LineAddr x) const {
  const auto [fp, b1, b2] = array_.candidates(x);
  return array_.find(fp, b1, b2).found() || stash_matches(fp, b1, b2);
}

bool CuckooFilter::erase(LineAddr x) {
  const auto [fp, b1, b2] = array_.candidates(x);
  const BucketArray::Match hit = array_.find(fp, b1, b2);
  if (hit.found()) {
    array_.clear_entry(hit.bucket, hit.slot);
    return true;
  }
  if (stash_matches(fp, b1, b2)) {
    stash_ = BucketArray::Leftover{};
    return true;
  }
  return false;
}

}  // namespace pipo
