#include "filter/auto_cuckoo_filter.h"

#include <algorithm>

namespace pipo {

AutoCuckooFilter::Response AutoCuckooFilter::access(LineAddr x) {
  ++accesses_;
  const auto [fp, b1, b2] = array_.candidates(x);

  // Query: check both candidate buckets for a valid matching fingerprint.
  const BucketArray::Match hit = array_.find(fp, b1, b2);
  if (hit.found()) {
    ++hits_;
    const std::uint32_t sec = std::min(
        array_.security(hit.bucket, hit.slot) + 1, config().counter_max());
    array_.set_security(hit.bucket, hit.slot, sec);
    observer_->on_query_hit(x, hit.bucket, hit.slot);
    const bool pp = sec >= config().sec_thr;
    if (pp) ++ping_pong_captures_;
    return Response{sec, true, pp};
  }

  // Miss: insert a new record. Security starts at zero and zero is
  // returned as the Response (secThr >= 1, so a fresh line is never a
  // Ping-Pong). The new fingerprint is always placed, so insertion never
  // fails; a record still in hand after MNK relocations is dropped
  // (autonomic deletion, Section V-A). With MNK = 0 that is the victim
  // the new fingerprint displaced, matching Fig 7.
  observer_->on_insert_start(x);
  if (array_.insert(fp, b1, b2, rng_, *observer_, total_kicks_).entry.valid) {
    ++autonomic_deletions_;
  }
  ++new_entries_;
  return Response{0, false, false};
}

bool AutoCuckooFilter::contains(LineAddr x) const {
  const auto [fp, b1, b2] = array_.candidates(x);
  return array_.find(fp, b1, b2).found();
}

std::optional<std::uint32_t> AutoCuckooFilter::security_of(LineAddr x) const {
  const auto [fp, b1, b2] = array_.candidates(x);
  const BucketArray::Match hit = array_.find(fp, b1, b2);
  if (!hit.found()) return std::nullopt;
  return array_.security(hit.bucket, hit.slot);
}

}  // namespace pipo
