#include "workload/zipf_table.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pipo {

namespace {
std::uint64_t checked_ranks(std::uint64_t n) {
  if (n == 0 || n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfTable requires 1..2^32-1 ranks");
  }
  return n;
}
}  // namespace

ZipfTable::ZipfTable(std::uint64_t n, double s)
    : cdf_(static_cast<std::size_t>(checked_ranks(n))),
      guide_(std::bit_ceil(static_cast<std::size_t>(n))),
      guide_size_(static_cast<double>(guide_.size())) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[static_cast<std::size_t>(i)] = acc;
  }
  for (double& v : cdf_) v /= acc;
  // guide[j] = the first rank whose CDF value is >= j/m, in one
  // merge-like pass: both j/m and the CDF ascend, and j/m < 1.0 ==
  // cdf_.back() keeps i in range.
  std::size_t i = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    const double cut = static_cast<double>(j) / guide_size_;
    while (cdf_[i] < cut) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace pipo
