// Hash-equivalence oracle: the fused single-pass hash paths must be
// bit-identical to the seed's three independent passes.
//
// Covers, exhaustively where the domain is small and randomized where it
// is not:
//  * mix2() vs two separately-constructed MixHash finalizers;
//  * BucketArray::candidates() / alt_bucket() (fused pass + precomputed
//    fprint->alt-bucket XOR table) vs ReferenceFilterHash (three full
//    MixHash passes), across fingerprint widths on both sides of the
//    alt-table cutoff and the full exhaustive fingerprint domain.
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/bucket_array.h"
#include "filter/hash.h"
#include "tests/oracle/reference_filter.h"

namespace pipo {
namespace {

using oracle::ReferenceFilterHash;

TEST(HashEquivalence, Mix2MatchesTwoMixHashPasses) {
  Rng rng(0x2B);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t sa = rng.next();
    const std::uint64_t sb = rng.next();
    const std::uint64_t x = rng.next();
    const MixHash ha(sa), hb(sb);
    const HashPair got = mix2(x, sa, sb);
    ASSERT_EQ(got.a, ha(x)) << "seed " << sa << ", key " << x;
    ASSERT_EQ(got.b, hb(x)) << "seed " << sb << ", key " << x;
  }
}

TEST(HashEquivalence, Mix2MatchesOnStructuredKeys) {
  // Low-entropy keys (line addresses are small sequential integers).
  const MixHash ha(1), hb(0xFFFFFFFFFFFFFFFFull);
  for (std::uint64_t x = 0; x < 4096; ++x) {
    const HashPair got = mix2(x, 1, 0xFFFFFFFFFFFFFFFFull);
    ASSERT_EQ(got.a, ha(x));
    ASSERT_EQ(got.b, hb(x));
  }
}

/// Fingerprint widths under test: tabled (f <= 16) and on-the-fly.
constexpr std::uint32_t kWidths[] = {1, 2, 4, 8, 12, 16, 17, 24, 32};

FilterConfig cfg_with_f(std::uint32_t f, std::uint64_t hash_seed) {
  FilterConfig cfg;
  cfg.l = 256;
  cfg.b = 4;
  cfg.f = f;
  cfg.hash_seed = hash_seed;
  return cfg;
}

TEST(HashEquivalence, AltBucketTableExhaustiveOverFingerprintDomain) {
  // For every width with a tractable domain, sweep EVERY fingerprint
  // value and several buckets: table lookup == full third MixHash pass.
  for (std::uint32_t f : kWidths) {
    if (f > 16) continue;  // exhaustive tier: tabled widths only
    const FilterConfig cfg = cfg_with_f(f, 0x5851F42D4C957F2Dull + f);
    const BucketArray array(cfg);
    const ReferenceFilterHash ref(cfg);
    for (std::uint64_t fp = 0; fp < (std::uint64_t{1} << f); ++fp) {
      for (std::size_t bucket : {std::size_t{0}, std::size_t{97},
                                 std::size_t{cfg.l - 1}}) {
        ASSERT_EQ(array.alt_bucket(bucket, static_cast<std::uint32_t>(fp)),
                  ref.alt_bucket(bucket, static_cast<std::uint32_t>(fp)))
            << "f=" << f << ", fp=" << fp << ", bucket=" << bucket;
      }
    }
  }
}

TEST(HashEquivalence, CandidatesMatchThreePassReferenceOnRandomKeys) {
  Rng rng(0xC4);
  for (std::uint32_t f : kWidths) {
    const FilterConfig cfg = cfg_with_f(f, rng.next());
    const BucketArray array(cfg);
    const ReferenceFilterHash ref(cfg);
    for (int i = 0; i < 20'000; ++i) {
      const LineAddr x = rng.next();
      const BucketArray::Candidates got = array.candidates(x);
      const std::uint32_t fp = ref.fingerprint(x);
      const std::size_t b1 = ref.bucket1(x);
      ASSERT_EQ(got.fprint, fp) << "f=" << f << ", key " << x;
      ASSERT_EQ(got.b1, b1) << "f=" << f << ", key " << x;
      ASSERT_EQ(got.b2, ref.alt_bucket(b1, fp)) << "f=" << f << ", key " << x;
      // The public per-field accessors agree with the fused result too.
      ASSERT_EQ(array.fingerprint(x), fp);
      ASSERT_EQ(array.bucket1(x), b1);
      ASSERT_EQ(array.bucket2(x), got.b2);
    }
  }
}

TEST(HashEquivalence, AltBucketIsAnInvolution) {
  // h2(x) = h1(x) XOR hash(fp) — applying alt_bucket twice returns the
  // original bucket, on both the tabled and untabled paths.
  Rng rng(0x1F);
  for (std::uint32_t f : {8u, 24u}) {
    const FilterConfig cfg = cfg_with_f(f, rng.next());
    const BucketArray array(cfg);
    for (int i = 0; i < 5'000; ++i) {
      const auto fp = static_cast<std::uint32_t>(
          rng.below(std::uint64_t{1} << f));
      const std::size_t b = rng.below(cfg.l);
      ASSERT_EQ(array.alt_bucket(array.alt_bucket(b, fp), fp), b);
    }
  }
}

}  // namespace
}  // namespace pipo
