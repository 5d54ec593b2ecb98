// Hash functions for the (Auto-)Cuckoo filter.
//
// The paper's microarchitecture (Fig 5) has three combinational hash
// modules: Hash1 (address -> bucket index), fPrintHash (address ->
// fingerprint) and the fingerprint re-hash used to derive the alternate
// bucket (h2(x) = h1(x) XOR hash(fp)). All three must be cheap enough for
// single-cycle hardware. Two forms of one hash family are provided:
//
//  * MixHash — a seeded SplitMix64/Murmur3-style finalizer: 3 multiplies
//              plus shifts, with excellent avalanche.
//  * mix2    — two MixHash streams over one key in a single fused pass,
//              bit-identical to two separate MixHash calls; the filter's
//              front end (BucketArray::candidates) uses it.
#pragma once

#include <cstdint>

namespace pipo {

/// Stateless seeded mixing hash (SplitMix64 finalizer over x + seed).
class MixHash {
 public:
  explicit MixHash(std::uint64_t seed = 0xA0761D6478BD642Full) : seed_(seed) {}

  std::uint64_t operator()(std::uint64_t x) const {
    std::uint64_t z = x + seed_ + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
};

/// Two hash values computed by one fused pass.
struct HashPair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Both filter front-end MixHash streams over one key in a single fused
/// pass: the two SplitMix64 finalizer chains are interleaved so their
/// multiplies overlap in the pipeline instead of running back-to-back as
/// two full MixHash calls. Bit-identical to MixHash(seed_a)(x) /
/// MixHash(seed_b)(x) — the hash-equivalence oracle enforces it.
inline HashPair mix2(std::uint64_t x, std::uint64_t seed_a,
                     std::uint64_t seed_b) {
  std::uint64_t za = x + seed_a + 0x9E3779B97F4A7C15ull;
  std::uint64_t zb = x + seed_b + 0x9E3779B97F4A7C15ull;
  za = (za ^ (za >> 30)) * 0xBF58476D1CE4E5B9ull;
  zb = (zb ^ (zb >> 30)) * 0xBF58476D1CE4E5B9ull;
  za = (za ^ (za >> 27)) * 0x94D049BB133111EBull;
  zb = (zb ^ (zb >> 27)) * 0x94D049BB133111EBull;
  return HashPair{za ^ (za >> 31), zb ^ (zb >> 31)};
}

}  // namespace pipo
