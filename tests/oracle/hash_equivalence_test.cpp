// Hash-equivalence oracle: BucketArray's front end must be bit-identical
// to the seed's three independent MixHash passes.
//
// Covers, exhaustively where the domain is small and randomized where it
// is not, BucketArray::candidates() / alt_bucket() vs
// ReferenceFilterHash across fingerprint widths from 1 to 32 bits,
// including the full fingerprint domain of every width up to 16.
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/bucket_array.h"
#include "tests/oracle/reference_filter.h"

namespace pipo {
namespace {

using oracle::ReferenceFilterHash;

/// Fingerprint widths under test.
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
  // value and several buckets against the reference's third MixHash pass.
  for (std::uint32_t f : kWidths) {
    if (f > 16) continue;  // exhaustive tier: tractable widths only
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
      // The public per-field accessors agree with the triple too.
      ASSERT_EQ(array.fingerprint(x), fp);
      ASSERT_EQ(array.bucket1(x), b1);
      ASSERT_EQ(array.bucket2(x), got.b2);
    }
  }
}

TEST(HashEquivalence, AltBucketIsAnInvolution) {
  // h2(x) = h1(x) XOR hash(fp) — applying alt_bucket twice returns the
  // original bucket, for narrow and wide fingerprints.
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
