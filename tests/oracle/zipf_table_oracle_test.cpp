// Differential oracle for the hot-region Zipf sampler
// (workload/zipf_table.h): ZipfTable::rank(u), a cutpoint-guide lookup,
// must return the index the seed's sampler returned for the same u —
// std::lower_bound over the seed's CDF, rebuilt below with the seed's
// loop.
//
// Tables: every SPEC profile's (hot lines, zipf_s) pair; n = 1 and 3;
// s = 0, whose CDF values land exactly on guide boundaries j/m; a steep
// s = 3. Values of u: 0, every CDF value below 1 with both neighbours,
// every boundary j/m with both neighbours, the largest double below 1,
// and 1M Rng::uniform() draws.
//
// Teeth: std::upper_bound must disagree with lower_bound on at least
// one u of every table with two or more ranks, so exact ties between u
// and a CDF value are exercised and an off-by-one scan (`<=` for `<`)
// fails. A one-rank table has no tie to exercise: every u < 1 lies
// below its only CDF value, 1.0.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "workload/profile.h"
#include "workload/zipf_table.h"

namespace pipo {
namespace {

/// The seed's table: SyntheticWorkload's CDF loop before ZipfTable.
std::vector<double> seed_zipf_cdf(std::uint64_t n, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double acc = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[static_cast<std::size_t>(i)] = acc;
  }
  for (double& v : cdf) v /= acc;
  return cdf;
}

struct ZipfCase {
  std::uint64_t n;
  double s;
  std::string origin;  ///< the profiles or the corner that ask for it
};

std::vector<ZipfCase> zipf_cases() {
  std::vector<ZipfCase> cases;
  auto add = [&cases](std::uint64_t n, double s, const std::string& origin) {
    for (ZipfCase& c : cases) {
      if (c.n == n && c.s == s) {
        c.origin += '+';
        c.origin += origin;
        return;
      }
    }
    cases.push_back({n, s, origin});
  };
  for (const std::string& name : spec_benchmarks()) {
    const BenchmarkProfile p = spec_profile(name);
    // SyntheticWorkload's hot-line count.
    add(std::max<std::uint64_t>(
            1, std::min(p.hot_bytes, p.working_set_bytes) / kLineSizeBytes),
        p.zipf_s, name);
  }
  add(1, 0.8, "one_rank");
  add(3, 0.8, "three_ranks");
  add(1536, 1.0, "sjeng_non_power_of_two");
  for (const std::uint64_t n : {4u, 1024u, 1536u}) add(n, 0.0, "uniform");
  for (const std::uint64_t n : {3u, 1536u, 4096u}) add(n, 3.0, "steep");
  return cases;
}

std::string case_label(const ZipfCase& c) {
  std::ostringstream os;
  os << "n=" << c.n << " s=" << c.s << " (" << c.origin << ")";
  return os.str();
}

// Names the table in gtest's "where GetParam() = ..." line.
void PrintTo(const ZipfCase& c, std::ostream* os) { *os << case_label(c); }

std::string hex(double u) {
  std::ostringstream os;
  os << std::hexfloat << u;
  return os.str();
}

/// 0, every CDF value below 1 and every boundary j/m, each with both
/// neighbours, and the largest double below 1.
std::vector<double> corner_points(const std::vector<double>& cdf) {
  const std::size_t m = std::bit_ceil(cdf.size());
  std::vector<double> anchors = cdf;
  for (std::size_t j = 0; j < m; ++j) {
    anchors.push_back(static_cast<double>(j) / static_cast<double>(m));
  }
  std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
  for (const double a : anchors) {
    for (const double u :
         {a, std::nextafter(a, 0.0), std::nextafter(a, 1.0)}) {
      if (u >= 0.0 && u < 1.0) us.push_back(u);
    }
  }
  return us;
}

class ZipfTableOracle : public ::testing::TestWithParam<ZipfCase> {};

TEST_P(ZipfTableOracle, RankEqualsSeedLowerBound) {
  const ZipfCase& c = GetParam();
  const std::string label = case_label(c);
  const ZipfTable table(c.n, c.s);
  const std::vector<double> cdf = seed_zipf_cdf(c.n, c.s);
  ASSERT_EQ(table.cdf(), cdf) << label;
  ASSERT_EQ(cdf.back(), 1.0) << label;

  std::uint64_t checked = 0;
  std::uint64_t ties = 0;  // u where upper_bound's index differs
  auto check = [&](double u) -> ::testing::AssertionResult {
    const auto lower = static_cast<std::uint64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const auto upper = static_cast<std::uint64_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ++checked;
    if (upper != lower) ++ties;
    const std::uint64_t got = table.rank(u);
    if (got == lower) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "rank(" << hex(u) << ") = " << got << ", lower_bound index "
           << lower;
  };
  for (const double u : corner_points(cdf)) {
    ASSERT_TRUE(check(u)) << label;
  }
  Rng rng(0x21FF + c.n);
  for (int k = 0; k < 1'000'000; ++k) {
    ASSERT_TRUE(check(rng.uniform())) << label << ", draw " << k;
  }
  if (c.n >= 2) {
    EXPECT_GT(ties, 0u) << label << ": no u of " << checked
                        << " ties a CDF value";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tables, ZipfTableOracle, ::testing::ValuesIn(zipf_cases()),
    [](const ::testing::TestParamInfo<ZipfCase>& info) {
      // "n1536_s0p8": gtest names allow only [A-Za-z0-9_].
      std::string s = std::to_string(info.param.s);
      s.erase(s.find_last_not_of('0') + 1);
      if (s.back() == '.') s.pop_back();
      std::replace(s.begin(), s.end(), '.', 'p');
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_s";
      name += s;
      return name;
    });

}  // namespace
}  // namespace pipo
