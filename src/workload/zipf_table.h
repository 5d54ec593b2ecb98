// Zipf(s) rank sampling by inverse CDF in O(1) expected time.
//
// The table holds the CDF of Zipf(s) over ranks 0..n-1 (rank r weighs
// 1/(r+1)^s; s = 0 is uniform) plus a cutpoint guide (Chen & Asau, "On
// generating random variates from an empirical distribution", AIIE
// Trans. 1974): m = bit_ceil(n) entries, guide[j] the first rank whose
// CDF value is >= j/m. rank(u) starts at guide[floor(u*m)] and steps
// forward while the CDF is below u, so it returns the first rank whose
// CDF value is >= u, the rank a binary search over cdf() finds:
//   * m is a power of two, so u*m and j/m are exact; for j = floor(u*m),
//     j/m <= u, so no rank before guide[j] has a CDF value >= u;
//   * cdf().back() is acc/acc == 1.0 > u, so the scan always stops.
// The expected scan length is at most 1 + n/m <= 2 steps.
// tests/oracle/zipf_table_oracle_test.cpp proves the equality against
// the binary search on every CDF value, every guide boundary and their
// neighbours.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pipo {

class ZipfTable {
 public:
  /// Zipf(s) over n ranks. Throws std::invalid_argument unless
  /// 1 <= n <= 2^32 - 1 (guide entries are 32-bit ranks).
  ZipfTable(std::uint64_t n, double s);

  /// The smallest rank whose CDF value is >= u, for u in [0, 1) (the
  /// range of Rng::uniform()).
  std::uint64_t rank(double u) const {
    // m <= 2^32, so floor(u*m) fits the one-instruction 32-bit convert.
    std::size_t i = guide_[static_cast<std::uint32_t>(u * guide_size_)];
    while (cdf_[i] < u) ++i;
    return i;
  }

  /// CDF value of each rank, ascending; the last is exactly 1.0.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  double guide_size_;  ///< m, as the multiplier that maps u to a cutpoint
};

}  // namespace pipo
