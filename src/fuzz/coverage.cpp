#include "fuzz/coverage.h"

#include <cstdio>

namespace pipo {

std::uint8_t coverage_bucket(std::uint64_t v) {
  if (v == 0) return 0;
  std::uint8_t b = 1;
  while (v >>= 1) ++b;
  return b;  // 1 + floor(log2(v))
}

std::string CoverageSignature::to_string() const {
  std::string out;
  out.reserve(2 * kCoverageSlots);
  char buf[4];
  for (std::uint8_t b : bucket) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

CoverageSignature coverage_signature(
    const System::Stats& s, std::uint64_t captures, std::uint64_t prefetches,
    const std::vector<std::uint64_t>& obs_hist) {
  CoverageSignature sig;
  std::size_t i = 0;
#define PIPO_STATS_BUCKET(name) sig.bucket[i++] = coverage_bucket(s.name);
  PIPO_SYSTEM_STATS(PIPO_STATS_BUCKET)
#undef PIPO_STATS_BUCKET
  sig.bucket[i++] = coverage_bucket(captures);
  sig.bucket[i++] = coverage_bucket(prefetches);
  for (std::size_t b = 0; b < kCoverageObsBins; ++b) {
    sig.bucket[i++] =
        coverage_bucket(b < obs_hist.size() ? obs_hist[b] : 0);
  }
  return sig;
}

}  // namespace pipo
