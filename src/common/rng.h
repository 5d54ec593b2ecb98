// Deterministic pseudo-random number generation for the simulator.
//
// Everything random in this reproduction (victim-way selection in the
// Auto-Cuckoo filter, workload address streams, attacker fill addresses)
// draws from Xoshiro256** generators seeded explicitly, so every
// experiment is reproducible bit-for-bit from its seed. std::mt19937 is
// avoided because its 2.5 KB state makes per-object generators costly and
// its distributions are not stable across standard library versions.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace pipo {

/// Lemire's multiply-shift rejection method: a uniform integer in
/// [0, bound) from raw 64-bit draws, unbiased. `draw()` yields the next
/// draw; bound must be nonzero. It takes one draw, and more only when
/// the low half of the product lands in the rejected sliver (with
/// probability below bound / 2^64). Rng::below and the synthetic
/// generator's block draws (workload/synthetic.h) share this one
/// definition, so the same draws give the same result through either.
/// Always inlined, as Rng::below's body was before it moved here: the
/// filters, attackers and fuzzer call it per access.
template <class Draw>
[[gnu::always_inline]] inline std::uint64_t lemire_below(std::uint64_t bound,
                                                         Draw&& draw) {
  __uint128_t m = static_cast<__uint128_t>(draw()) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(draw()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// The integer form of Rng::chance(p): for every raw draw x,
///   Rng::unit(x) < p   exactly when   (x >> 11) < chance_threshold(p).
/// unit(x) is X * 2^-53 for the integer X = x >> 11 < 2^53, and p * 2^53
/// is exact (a power-of-two scale), so X * 2^-53 < p is X < p * 2^53,
/// which for an integer X is X < ceil(p * 2^53). p <= 0 (or NaN) never
/// succeeds and gives 0; p >= 1 always does and gives 2^53.
inline std::uint64_t chance_threshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/// Rng::chance(p)'s outcome for raw draw `x`, given t = chance_threshold(p).
inline bool chance_hit(std::uint64_t x, std::uint64_t t) {
  return (x >> 11) < t;
}

/// Xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation re-expressed in C++). 256-bit state, period 2^256-1,
/// passes BigCrush; plenty for simulation workloads.
class Rng {
 public:
  /// Seeds the four 64-bit state words from a single seed using
  /// SplitMix64, the initialization recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion.
    auto next = [&seed]() {
      seed += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return z ^ (z >> 31);
    };
    for (auto& word : state_) word = next();
  }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be nonzero. Uses Lemire's
  /// multiply-shift rejection method (unbiased; lemire_below below).
  std::uint64_t below(std::uint64_t bound) {
    return lemire_below(bound, [this] { return next(); });
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() { return unit(next()); }

  /// The uniform() value of raw draw `x`: (x >> 11) * 2^-53, exact.
  static double unit(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) { return uniform() < p; }

  /// Geometric-ish "one in n" helper used by workload generators.
  bool one_in(std::uint64_t n) { return below(n) == 0; }

  /// Forks an independent stream: hashes this generator's next output with
  /// a stream id. Used to give each simulated object its own generator.
  Rng fork(std::uint64_t stream_id) {
    return Rng(next() ^ (stream_id * 0xD1342543DE82EF95ull));
  }

  // UniformRandomBitGenerator interface so <algorithm> shuffles work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace pipo
