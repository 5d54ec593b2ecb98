// Hash functions for the (Auto-)Cuckoo filter.
//
// The paper's microarchitecture (Fig 5) has three combinational hash
// modules: Hash1 (address -> bucket index), fPrintHash (address ->
// fingerprint) and the fingerprint re-hash used to derive the alternate
// bucket (h2(x) = h1(x) XOR hash(fp)). All three must be cheap enough for
// single-cycle hardware. BucketArray runs each as one MixHash, a seeded
// SplitMix64/Murmur3-style finalizer: 3 multiplies plus shifts, with
// excellent avalanche.
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

 private:
  std::uint64_t seed_;
};

}  // namespace pipo
