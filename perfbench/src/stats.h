#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for even sizes); 0 when
/// empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank position of quantile `q` in a
/// sample of `n`.
size_t SamplesBeyond(size_t n, double q);

/// The highest quantile of the ladder 0.5, 0.9, 0.99, 0.999, 0.9999 that
/// leaves at least ten samples beyond it in a sample of `n`; 0 when not
/// even the median does.
double HighestSupportedQuantile(size_t n);

/// A latency sample summarized the way the benchmark reports timings: the
/// median, the requested tail quantile, and the highest quantile the
/// sample size supports.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  /// HighestSupportedQuantile(count); `p99` is valid only when this is at
  /// least 0.99.
  double supported_q = 0.0;
  bool p99_supported() const { return supported_q >= 0.99; }
};

LatencySummary Summarize(const std::vector<double>& values);

/// Quantile `q` of each of `windows` equal consecutive slices of `values`
/// (in arrival order).
std::vector<double> WindowQuantiles(const std::vector<double>& values,
                                    double q, size_t windows);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
