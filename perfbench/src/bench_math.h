// The benchmark's own arithmetic: quantiles, the tail-percentile rule,
// span self time, busy ratio, per-kilo-access normalisation and the
// record digest. Pure functions, unit-tested in perfbench_tests.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile, q in [0, 1], between closest ranks
/// (rank q * (n - 1)); the "inclusive" method of Python's
/// statistics.quantiles. Throws on an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Percentiles a tail may be reported at. A fixed ladder (rather than
/// 100 * (1 - 10 / n)) keeps the reported percentile the same across
/// runs whose sample counts differ: 60 configs always give p80, and 200
/// to 999 always give p95.
inline constexpr double kTailLadder[] = {50, 75, 80, 85, 90, 95, 99, 99.9};

struct Tail {
  double percentile = 100;  ///< 100 = the maximum (too few samples)
  double value = 0;
  std::size_t samples = 0;
};

/// Samples ranked above the p-th percentile of n samples.
inline std::size_t samples_beyond(double p, std::size_t n) {
  const auto at = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9));
  return n > at ? n - at : 0;
}

/// The highest ladder percentile with at least `min_beyond` samples
/// beyond it, and the sample's value there. With fewer than 2 *
/// min_beyond samples no ladder step qualifies and the maximum is
/// reported as percentile 100.
inline Tail tail_percentile(const std::vector<double>& v,
                            std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  for (double p : kTailLadder) {
    if (samples_beyond(p, v.size()) >= min_beyond) t.percentile = p;
  }
  t.value = t.percentile >= 100 ? *std::max_element(v.begin(), v.end())
                                : quantile(v, t.percentile / 100.0);
  return t;
}

/// Cost of recording one span, calibrated at run time: `inner_ns` is the
/// part inside the span's own [start, end) (so every measured duration
/// is biased up by it), `total_ns` is the whole per-span cost a parent
/// absorbs for each child it encloses.
struct SpanCost {
  double inner_ns = 0;
  double total_ns = 0;
};

/// Sum of `n` measured span durations with the span's own bias removed.
inline double corrected_sum_ns(double raw_sum_ns, std::uint64_t n,
                               const SpanCost& c) {
  return raw_sum_ns - static_cast<double>(n) * c.inner_ns;
}

/// Self time of a span: its corrected length minus the corrected time of
/// its `n_children` child spans and the recording cost of each child.
inline double self_time_ns(double dur_ns, std::uint64_t n_children,
                           double children_raw_ns, const SpanCost& c) {
  const double kids = corrected_sum_ns(children_raw_ns, n_children, c) +
                      static_cast<double>(n_children) * c.total_ns;
  return dur_ns - c.inner_ns - kids;
}

/// Share of `threads` x `wall_ns` thread capacity spent inside item
/// spans.
inline double busy_ratio(double busy_ns, unsigned threads, double wall_ns) {
  if (threads == 0 || wall_ns <= 0) return 0;
  return busy_ns / (static_cast<double>(threads) * wall_ns);
}

/// Events per thousand simulated accesses.
inline double per_kacc(std::uint64_t count, std::uint64_t accesses) {
  return accesses == 0 ? 0.0
                       : static_cast<double>(count) * 1000.0 /
                             static_cast<double>(accesses);
}

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The yardstick's CPU time at the nominal host speed the end-to-end
/// metrics are reported at (about its median on the reference container).
inline constexpr double kYardstickNominalNs = 2.0e6;

/// `cpu_ns`, measured beside a yardstick run that took `yardstick_ns`,
/// scaled to the nominal host speed: a host running everything twice as
/// slow doubles both and leaves the result unchanged.
inline double at_nominal_speed(double cpu_ns, double yardstick_ns) {
  if (yardstick_ns <= 0) throw std::invalid_argument("yardstick time <= 0");
  return cpu_ns * kYardstickNominalNs / yardstick_ns;
}

/// FNV-1a 64 over a sequence of records, each terminated by '\n'. Guards
/// against accidental change of the simulated output, not adversaries.
class Digest {
 public:
  void add(std::string_view record) {
    for (unsigned char ch : record) mix(ch);
    mix('\n');
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char ch) {
    h_ ^= ch;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace perfbench
