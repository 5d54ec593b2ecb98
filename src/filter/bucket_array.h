// Storage and operations shared by the classic Cuckoo filter and the
// Auto-Cuckoo filter.
//
// Mirrors the hardware microarchitecture of Section V-C / Fig 5: an fPrint
// Array (Valid flag + f-bit fingerprint per entry) and a Data Array (the
// Security saturating counter) with l sets of b entries each. The two
// arrays move in lockstep during relocations, exactly as the hardware
// would move fingerprint and counter together.
//
// Entries are stored bit-packed, one 64-bit word per entry holding
// Valid(1) | fPrint(f) | Security(counter_bits) — the same field layout
// the hardware tables use. A bucket's b words are contiguous, so the
// lookup loop compares against a single masked word per slot instead of
// loading a padded three-field struct, and the total valid count is
// maintained incrementally so occupancy() is O(1) rather than O(l*b).
//
// Both filters run the one insert below and the one two-candidate
// lookup. They differ only in what happens to the record still in hand
// after MNK relocations: the classic filter parks it in its stash and
// reports a failed insert, the Auto-Cuckoo filter drops it (autonomic
// deletion, Section V-A).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitutil.h"
#include "common/rng.h"
#include "common/types.h"
#include "filter/filter_config.h"
#include "filter/hash.h"
#include "filter/observer.h"

namespace pipo {

/// One filter entry as seen by software models; in hardware this is
/// Valid(1) | fPrint(f) | Security(counter_bits) = 15 bits at the paper's
/// default configuration.
struct FilterEntry {
  bool valid = false;
  std::uint32_t fprint = 0;    ///< f-bit fingerprint
  std::uint32_t security = 0;  ///< Security saturating counter
};

/// l x b matrix of bit-packed entries with the partial-key cuckoo hashing
/// index computations from Section II-B:
///   h1(x) = hash(x)                 (mod l)
///   h2(x) = h1(x) XOR hash(fp(x))   (mod l)
class BucketArray {
 public:
  explicit BucketArray(const FilterConfig& cfg)
      : cfg_(cfg),
        index_mask_(cfg.l - 1),
        fprint_mask_(low_mask(cfg.f)),
        security_mask_(low_mask(cfg.counter_bits)),
        security_shift_(1 + cfg.f),
        hash1_(cfg.hash_seed),
        fprint_hash_(cfg.hash_seed ^ 0x94D049BB133111EBull),
        alt_hash_(cfg.hash_seed ^ 0xD6E8FEB86659FD93ull),
        words_(static_cast<std::size_t>(cfg.l) * cfg.b, 0) {
    cfg.validate();
  }

  const FilterConfig& config() const { return cfg_; }

  /// f-bit fingerprint of a line address (the paper's xi_x).
  std::uint32_t fingerprint(LineAddr x) const {
    return static_cast<std::uint32_t>(fprint_hash_(x) & fprint_mask_);
  }

  /// First candidate bucket (the paper's mu_x).
  std::size_t bucket1(LineAddr x) const {
    return static_cast<std::size_t>(hash1_(x) & index_mask_);
  }

  /// Alternate bucket for a fingerprint currently stored in `bucket`
  /// (partial-key cuckoo hashing; an involution by XOR construction).
  std::size_t alt_bucket(std::size_t bucket, std::uint32_t fprint) const {
    return static_cast<std::size_t>(
        (bucket ^ alt_hash_(fprint & fprint_mask_)) & index_mask_);
  }

  /// The full per-access hash triple — fingerprint and both candidate
  /// buckets (the paper's xi_x, mu_x, sigma_x).
  struct Candidates {
    std::uint32_t fprint = 0;
    std::size_t b1 = 0;
    std::size_t b2 = 0;
  };

  /// One MixHash pass per hash module of Fig 5: Hash1, fPrintHash and
  /// the fingerprint re-hash for the alternate bucket.
  Candidates candidates(LineAddr x) const {
    const std::uint32_t fp = fingerprint(x);
    const std::size_t b1 = bucket1(x);
    return Candidates{fp, b1, alt_bucket(b1, fp)};
  }

  /// Second candidate bucket (the paper's sigma_x).
  std::size_t bucket2(LineAddr x) const {
    return alt_bucket(bucket1(x), fingerprint(x));
  }

  /// Unpacked view of entry (bucket, slot), by value.
  FilterEntry entry(std::size_t bucket, std::size_t slot) const {
    return unpack(words_[index(bucket, slot)]);
  }

  /// Overwrites entry (bucket, slot), keeping the valid count current.
  void set_entry(std::size_t bucket, std::size_t slot, FilterEntry e) {
    std::uint64_t& w = words_[index(bucket, slot)];
    valid_count_ += static_cast<std::int64_t>(e.valid) -
                    static_cast<std::int64_t>(w & 1u);
    w = pack(e);
  }

  void clear_entry(std::size_t bucket, std::size_t slot) {
    set_entry(bucket, slot, FilterEntry{});
  }

  std::uint32_t security(std::size_t bucket, std::size_t slot) const {
    return static_cast<std::uint32_t>(
        (words_[index(bucket, slot)] >> security_shift_) & security_mask_);
  }

  void set_security(std::size_t bucket, std::size_t slot, std::uint32_t v) {
    std::uint64_t& w = words_[index(bucket, slot)];
    w = (w & ~(security_mask_ << security_shift_)) |
        (static_cast<std::uint64_t>(v & security_mask_) << security_shift_);
  }

  /// Swaps the whole entry with `e` (one kick: fingerprint and Security
  /// relocate together, fPrint and Data arrays in lockstep).
  void swap_entry(std::size_t bucket, std::size_t slot, FilterEntry& e) {
    std::uint64_t& w = words_[index(bucket, slot)];
    const std::uint64_t incoming = pack(e);
    valid_count_ += static_cast<std::int64_t>(incoming & 1u) -
                    static_cast<std::int64_t>(w & 1u);
    e = unpack(w);
    w = incoming;
  }

  /// Index of a valid entry in `bucket` matching `fprint`, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find_in_bucket(std::size_t bucket, std::uint32_t fprint) const {
    const std::uint64_t want =
        1u | (static_cast<std::uint64_t>(fprint & fprint_mask_) << 1);
    const std::uint64_t mask = 1u | (fprint_mask_ << 1);
    const std::uint64_t* w = &words_[bucket * cfg_.b];
    for (std::size_t s = 0; s < cfg_.b; ++s) {
      if ((w[s] & mask) == want) return s;
    }
    return npos;
  }

  /// Index of an invalid (free) entry in `bucket`, or npos if full.
  std::size_t find_vacancy(std::size_t bucket) const {
    const std::uint64_t* w = &words_[bucket * cfg_.b];
    for (std::size_t s = 0; s < cfg_.b; ++s) {
      if (!(w[s] & 1u)) return s;
    }
    return npos;
  }

  /// Where a lookup found its fingerprint; slot is npos if nowhere.
  struct Match {
    std::size_t bucket = 0;
    std::size_t slot = npos;
    bool found() const { return slot != npos; }
  };

  /// A valid entry matching `fprint` in candidate bucket b1, else in b2
  /// (scanned once when the two alias).
  Match find(std::uint32_t fprint, std::size_t b1, std::size_t b2) const {
    const std::size_t slot = find_in_bucket(b1, fprint);
    if (slot != npos || b1 == b2) return Match{b1, slot};
    return Match{b2, find_in_bucket(b2, fprint)};
  }

  /// The record an insert could not place. entry.valid is false when
  /// every record found a slot.
  struct Leftover {
    FilterEntry entry;
    std::size_t bucket = 0;  ///< the bucket `entry` was displaced from
  };

  /// The cuckoo insert of Section II-B, run by both filters. `fprint`
  /// takes a vacancy in b1 or b2 if either has one. Otherwise it
  /// displaces a random victim of a random candidate, and the record in
  /// hand moves to its alternate bucket, displacing a random victim
  /// there if that is full too, at most MNK times. Each relocation adds
  /// one to `kicks`; every step is reported to `observer`, a record
  /// still in hand at the end as on_drop().
  Leftover insert(std::uint32_t fprint, std::size_t b1, std::size_t b2,
                  Rng& rng, FilterObserver& observer, std::uint64_t& kicks) {
    for (std::size_t bkt : {b1, b2}) {
      const std::size_t slot = find_vacancy(bkt);
      if (slot != npos) {
        set_entry(bkt, slot, FilterEntry{true, fprint, 0});
        observer.on_place(bkt, slot);
        return Leftover{};
      }
      if (b1 == b2) break;
    }

    std::size_t bkt = rng.chance(0.5) ? b1 : b2;
    FilterEntry in_hand{true, fprint, 0};
    {
      const std::size_t victim_slot = rng.below(cfg_.b);
      swap_entry(bkt, victim_slot, in_hand);
      observer.on_swap(bkt, victim_slot);
    }
    for (std::uint32_t relocation = 0; relocation < cfg_.mnk; ++relocation) {
      ++kicks;
      bkt = alt_bucket(bkt, in_hand.fprint);
      const std::size_t slot = find_vacancy(bkt);
      if (slot != npos) {
        set_entry(bkt, slot, in_hand);
        observer.on_place(bkt, slot);
        return Leftover{};
      }
      const std::size_t victim_slot = rng.below(cfg_.b);
      swap_entry(bkt, victim_slot, in_hand);
      observer.on_swap(bkt, victim_slot);
    }
    observer.on_drop();
    return Leftover{in_hand, bkt};
  }

  /// Number of valid entries across the whole array. O(1): maintained
  /// incrementally by every mutation.
  std::uint64_t valid_count() const {
    return static_cast<std::uint64_t>(valid_count_);
  }

  /// Fraction of entries that are valid, in [0,1]. O(1).
  double occupancy() const {
    return static_cast<double>(valid_count_) /
           static_cast<double>(words_.size());
  }

  void clear() {
    for (std::uint64_t& w : words_) w = 0;
    valid_count_ = 0;
  }

  /// Visits every entry: fn(bucket, slot, entry). The entry is an
  /// unpacked temporary — mutate through set_entry, not the argument.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t bkt = 0; bkt < cfg_.l; ++bkt) {
      for (std::size_t s = 0; s < cfg_.b; ++s) {
        fn(bkt, s, unpack(words_[bkt * cfg_.b + s]));
      }
    }
  }

 private:
  std::size_t index(std::size_t bucket, std::size_t slot) const {
    return bucket * cfg_.b + slot;
  }

  std::uint64_t pack(const FilterEntry& e) const {
    return static_cast<std::uint64_t>(e.valid) |
           (static_cast<std::uint64_t>(e.fprint & fprint_mask_) << 1) |
           (static_cast<std::uint64_t>(e.security & security_mask_)
            << security_shift_);
  }

  FilterEntry unpack(std::uint64_t w) const {
    FilterEntry e;
    e.valid = (w & 1u) != 0;
    e.fprint = static_cast<std::uint32_t>((w >> 1) & fprint_mask_);
    e.security =
        static_cast<std::uint32_t>((w >> security_shift_) & security_mask_);
    return e;
  }

  FilterConfig cfg_;
  std::uint64_t index_mask_;
  std::uint64_t fprint_mask_;
  std::uint64_t security_mask_;
  unsigned security_shift_;
  MixHash hash1_;
  MixHash fprint_hash_;
  MixHash alt_hash_;
  std::vector<std::uint64_t> words_;
  std::int64_t valid_count_ = 0;
};

}  // namespace pipo
