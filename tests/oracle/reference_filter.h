// Straight-from-the-paper reference filters for the differential oracle
// layer: the Auto-Cuckoo filter and the classic Cuckoo filter it is
// built from.
//
// These are the seed repository's filters re-expressed in the most
// literal way possible: unpacked entries and THREE independent full hash
// passes per access (Hash1, fPrintHash, and the fingerprint re-hash of
// Fig 5), exactly the combinational modules the paper draws. The
// production filters share one bit-packed BucketArray and one insert;
// filter_differential_test.cpp drives each against its reference with
// identical seeds and asserts every result matches.
//
// The RNG streams (victim-slot selection, bucket choice) are seeded and
// consumed in exactly the seed order, so fast and reference paths stay
// in lockstep through relocation chains, autonomic deletions and the
// classic filter's stash.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "filter/filter_config.h"
#include "filter/hash.h"

namespace pipo::oracle {

/// Computes the (bucket1, fingerprint, alt-bucket) triple with three
/// independent MixHash passes, the seed BucketArray's exact seed
/// derivations. This is the specification BucketArray::candidates()
/// must match bit-for-bit.
struct ReferenceFilterHash {
  explicit ReferenceFilterHash(const FilterConfig& cfg)
      : index_mask(cfg.l - 1),
        fprint_mask((std::uint64_t{1} << cfg.f) - 1),
        hash1(cfg.hash_seed),
        fprint_hash(cfg.hash_seed ^ 0x94D049BB133111EBull),
        alt_hash(cfg.hash_seed ^ 0xD6E8FEB86659FD93ull) {}

  std::uint32_t fingerprint(LineAddr x) const {
    return static_cast<std::uint32_t>(fprint_hash(x) & fprint_mask);
  }
  std::size_t bucket1(LineAddr x) const {
    return static_cast<std::size_t>(hash1(x) & index_mask);
  }
  std::size_t alt_bucket(std::size_t bucket, std::uint32_t fprint) const {
    return static_cast<std::size_t>((bucket ^ alt_hash(fprint)) & index_mask);
  }

  std::uint64_t index_mask;
  std::uint64_t fprint_mask;
  MixHash hash1;
  MixHash fprint_hash;
  MixHash alt_hash;
};

/// The seed AutoCuckooFilter, naive storage, three-pass hashing.
class ReferenceAutoCuckooFilter {
 public:
  struct Response {
    std::uint32_t security = 0;
    bool existed = false;
    bool ping_pong = false;
  };

  explicit ReferenceAutoCuckooFilter(const FilterConfig& cfg)
      : cfg_(cfg),
        hash_(cfg),
        rng_(cfg.hash_seed ^ 0x2545F4914F6CDD1Dull),
        entries_(static_cast<std::size_t>(cfg.l) * cfg.b) {}

  Response access(LineAddr x) {
    const std::uint32_t fp = hash_.fingerprint(x);
    const std::size_t b1 = hash_.bucket1(x);
    const std::size_t b2 = hash_.alt_bucket(b1, fp);

    for (std::size_t bkt : {b1, b2}) {
      const std::size_t slot = find_in_bucket(bkt, fp);
      if (slot != npos) {
        Entry& e = at(bkt, slot);
        e.security = std::min(e.security + 1, counter_max());
        const bool pp = e.security >= cfg_.sec_thr;
        return Response{e.security, true, pp};
      }
      if (b1 == b2) break;
    }

    insert_new(fp, b1, b2);
    return Response{0, false, false};
  }

  bool contains(LineAddr x) const {
    const std::uint32_t fp = hash_.fingerprint(x);
    const std::size_t b1 = hash_.bucket1(x);
    if (find_in_bucket(b1, fp) != npos) return true;
    return find_in_bucket(hash_.alt_bucket(b1, fp), fp) != npos;
  }

  std::optional<std::uint32_t> security_of(LineAddr x) const {
    const std::uint32_t fp = hash_.fingerprint(x);
    const std::size_t b1 = hash_.bucket1(x);
    for (std::size_t bkt : {b1, hash_.alt_bucket(b1, fp)}) {
      const std::size_t slot = find_in_bucket(bkt, fp);
      if (slot != npos) return at(bkt, slot).security;
    }
    return std::nullopt;
  }

  std::uint64_t valid_count() const {
    std::uint64_t n = 0;
    for (const Entry& e : entries_) n += e.valid;
    return n;
  }

 private:
  struct Entry {
    bool valid = false;
    std::uint32_t fprint = 0;
    std::uint32_t security = 0;
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::uint32_t counter_max() const { return (1u << cfg_.counter_bits) - 1; }
  Entry& at(std::size_t bkt, std::size_t slot) {
    return entries_[bkt * cfg_.b + slot];
  }
  const Entry& at(std::size_t bkt, std::size_t slot) const {
    return entries_[bkt * cfg_.b + slot];
  }

  std::size_t find_in_bucket(std::size_t bkt, std::uint32_t fp) const {
    for (std::size_t s = 0; s < cfg_.b; ++s) {
      const Entry& e = at(bkt, s);
      if (e.valid && e.fprint == fp) return s;
    }
    return npos;
  }

  std::size_t find_vacancy(std::size_t bkt) const {
    for (std::size_t s = 0; s < cfg_.b; ++s) {
      if (!at(bkt, s).valid) return s;
    }
    return npos;
  }

  void insert_new(std::uint32_t fp, std::size_t b1, std::size_t b2) {
    for (std::size_t bkt : {b1, b2}) {
      const std::size_t slot = find_vacancy(bkt);
      if (slot != npos) {
        at(bkt, slot) = Entry{true, fp, 0};
        return;
      }
      if (b1 == b2) break;
    }

    std::size_t bkt = rng_.chance(0.5) ? b1 : b2;
    Entry in_hand{true, fp, 0};
    {
      const std::size_t victim_slot = rng_.below(cfg_.b);
      std::swap(at(bkt, victim_slot), in_hand);
    }
    for (std::uint32_t relocation = 0; relocation < cfg_.mnk; ++relocation) {
      bkt = hash_.alt_bucket(bkt, in_hand.fprint);
      const std::size_t slot = find_vacancy(bkt);
      if (slot != npos) {
        at(bkt, slot) = in_hand;
        return;
      }
      const std::size_t victim_slot = rng_.below(cfg_.b);
      std::swap(at(bkt, victim_slot), in_hand);
    }
    // Autonomic deletion: in_hand is dropped.
  }

  FilterConfig cfg_;
  ReferenceFilterHash hash_;
  Rng rng_;
  std::vector<Entry> entries_;
};

/// The seed CuckooFilter (Fan et al.'s classic filter), naive storage,
/// three-pass hashing. Entries hold no Security counter: a kick swaps
/// the fingerprint alone, and the fingerprint still in hand after MNK
/// relocations parks in a one-entry stash together with the bucket it
/// was displaced from. While the stash is occupied every insert fails.
class ReferenceCuckooFilter {
 public:
  explicit ReferenceCuckooFilter(const FilterConfig& cfg)
      : cfg_(cfg),
        hash_(cfg),
        rng_(cfg.hash_seed ^ 0x8664F205C6A4F21Bull),
        entries_(static_cast<std::size_t>(cfg.l) * cfg.b) {}

  bool insert(LineAddr x) {
    if (stash_.used) {
      ++failed_inserts_;
      return false;
    }
    const std::uint32_t fp = hash_.fingerprint(x);
    const std::size_t b1 = hash_.bucket1(x);
    const std::size_t b2 = hash_.alt_bucket(b1, fp);

    for (std::size_t bkt : {b1, b2}) {
      const std::size_t slot = find_vacancy(bkt);
      if (slot != npos) {
        at(bkt, slot) = Entry{true, fp};
        return true;
      }
      if (b1 == b2) break;
    }

    std::size_t bkt = rng_.chance(0.5) ? b1 : b2;
    std::uint32_t in_hand = fp;
    std::swap(at(bkt, rng_.below(cfg_.b)).fprint, in_hand);
    for (std::uint32_t relocation = 0; relocation < cfg_.mnk; ++relocation) {
      ++total_kicks_;
      bkt = hash_.alt_bucket(bkt, in_hand);
      const std::size_t slot = find_vacancy(bkt);
      if (slot != npos) {
        at(bkt, slot) = Entry{true, in_hand};
        return true;
      }
      std::swap(at(bkt, rng_.below(cfg_.b)).fprint, in_hand);
    }
    stash_ = Stash{true, in_hand, bkt};
    ++failed_inserts_;
    return false;
  }

  bool contains(LineAddr x) const {
    const std::uint32_t fp = hash_.fingerprint(x);
    const std::size_t b1 = hash_.bucket1(x);
    if (find_in_bucket(b1, fp) != npos) return true;
    if (find_in_bucket(hash_.alt_bucket(b1, fp), fp) != npos) return true;
    return stash_matches(x);
  }

  bool erase(LineAddr x) {
    const std::uint32_t fp = hash_.fingerprint(x);
    const std::size_t b1 = hash_.bucket1(x);
    for (std::size_t bkt : {b1, hash_.alt_bucket(b1, fp)}) {
      const std::size_t slot = find_in_bucket(bkt, fp);
      if (slot != npos) {
        at(bkt, slot) = Entry{};
        return true;
      }
    }
    if (stash_matches(x)) {
      stash_ = Stash{};
      return true;
    }
    return false;
  }

  std::uint64_t size() const {
    std::uint64_t n = 0;
    for (const Entry& e : entries_) n += e.valid;
    return n;
  }
  std::uint64_t total_kicks() const { return total_kicks_; }
  std::uint64_t failed_inserts() const { return failed_inserts_; }
  bool stash_used() const { return stash_.used; }

 private:
  struct Entry {
    bool valid = false;
    std::uint32_t fprint = 0;
  };
  struct Stash {
    bool used = false;
    std::uint32_t fprint = 0;
    std::size_t bucket = 0;
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  Entry& at(std::size_t bkt, std::size_t slot) {
    return entries_[bkt * cfg_.b + slot];
  }
  const Entry& at(std::size_t bkt, std::size_t slot) const {
    return entries_[bkt * cfg_.b + slot];
  }

  std::size_t find_in_bucket(std::size_t bkt, std::uint32_t fp) const {
    for (std::size_t s = 0; s < cfg_.b; ++s) {
      const Entry& e = at(bkt, s);
      if (e.valid && e.fprint == fp) return s;
    }
    return npos;
  }

  std::size_t find_vacancy(std::size_t bkt) const {
    for (std::size_t s = 0; s < cfg_.b; ++s) {
      if (!at(bkt, s).valid) return s;
    }
    return npos;
  }

  bool stash_matches(LineAddr x) const {
    if (!stash_.used) return false;
    const std::uint32_t fp = hash_.fingerprint(x);
    if (fp != stash_.fprint) return false;
    const std::size_t b1 = hash_.bucket1(x);
    return b1 == stash_.bucket || hash_.alt_bucket(b1, fp) == stash_.bucket;
  }

  FilterConfig cfg_;
  ReferenceFilterHash hash_;
  Rng rng_;
  std::vector<Entry> entries_;
  Stash stash_;
  std::uint64_t total_kicks_ = 0;
  std::uint64_t failed_inserts_ = 0;
};

}  // namespace pipo::oracle
