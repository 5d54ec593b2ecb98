#include "filter/auto_cuckoo_filter.h"

#include <algorithm>
#include <utility>

namespace pipo {

AutoCuckooFilter::Response AutoCuckooFilter::access(LineAddr x) {
  ++accesses_;
  const auto [fp, b1, b2] = array_.candidates(x);

  // Query: check both candidate buckets for a valid matching fingerprint.
  for (std::size_t bkt : {b1, b2}) {
    const std::size_t slot = array_.find_in_bucket(bkt, fp);
    if (slot != BucketArray::npos) {
      ++hits_;
      const std::uint32_t sec =
          std::min(array_.security(bkt, slot) + 1, config().counter_max());
      array_.set_security(bkt, slot, sec);
      observer_->on_query_hit(x, bkt, slot);
      const bool pp = sec >= config().sec_thr;
      if (pp) ++ping_pong_captures_;
      return Response{sec, true, pp};
    }
    if (b1 == b2) break;  // aliased candidates: one lookup suffices
  }

  // Miss: insert a new record. Security starts at zero and zero is
  // returned as the Response (secThr >= 1, so a fresh line is never a
  // Ping-Pong).
  insert_new(x, fp, b1, b2);
  ++new_entries_;
  return Response{0, false, false};
}

void AutoCuckooFilter::insert_new(LineAddr x, std::uint32_t fp,
                                  std::size_t b1, std::size_t b2) {
  observer_->on_insert_start(x);

  // A vacancy in either candidate bucket ends the insert immediately.
  for (std::size_t bkt : {b1, b2}) {
    const std::size_t slot = array_.find_vacancy(bkt);
    if (slot != BucketArray::npos) {
      array_.set_entry(bkt, slot, FilterEntry{true, fp, 0});
      observer_->on_place(bkt, slot);
      return;
    }
    if (b1 == b2) break;
  }

  // Both candidates full: the new fingerprint is placed unconditionally by
  // displacing a random victim (insertion never fails), and displaced
  // records relocate up to MNK times. Fingerprint and Security move
  // together (fPrint Array and Data Array operate in lockstep).
  std::size_t bkt = rng_.chance(0.5) ? b1 : b2;
  FilterEntry in_hand{true, fp, 0};
  {
    const std::size_t victim_slot = rng_.below(config().b);
    array_.swap_entry(bkt, victim_slot, in_hand);
    observer_->on_swap(bkt, victim_slot);
  }
  for (std::uint32_t relocation = 0; relocation < config().mnk;
       ++relocation) {
    ++total_kicks_;
    bkt = array_.alt_bucket(bkt, in_hand.fprint);
    const std::size_t slot = array_.find_vacancy(bkt);
    if (slot != BucketArray::npos) {
      array_.set_entry(bkt, slot, in_hand);
      observer_->on_place(bkt, slot);
      return;
    }
    const std::size_t victim_slot = rng_.below(config().b);
    array_.swap_entry(bkt, victim_slot, in_hand);
    observer_->on_swap(bkt, victim_slot);
  }

  // Autonomic deletion (Section V-A): the record that would need
  // relocation number MNK+1 is simply dropped. With MNK = 0 this is the
  // victim displaced by the new fingerprint itself, matching Fig 7. The
  // insert as a whole has still succeeded — the new fingerprint is
  // resident — so insertion never fails.
  ++autonomic_deletions_;
  observer_->on_drop();
}

bool AutoCuckooFilter::contains(LineAddr x) const {
  const auto [fp, b1, b2] = array_.candidates(x);
  if (array_.find_in_bucket(b1, fp) != BucketArray::npos) return true;
  return array_.find_in_bucket(b2, fp) != BucketArray::npos;
}

std::optional<std::uint32_t> AutoCuckooFilter::security_of(LineAddr x) const {
  const auto [fp, b1, b2] = array_.candidates(x);
  for (std::size_t bkt : {b1, b2}) {
    const std::size_t slot = array_.find_in_bucket(bkt, fp);
    if (slot != BucketArray::npos) return array_.security(bkt, slot);
  }
  return std::nullopt;
}

}  // namespace pipo
