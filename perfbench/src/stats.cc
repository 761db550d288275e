#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double q) {
  // 1-based rank ceil(q * n), clamped to [1, n]. The small epsilon keeps
  // q * n that is mathematically whole (0.99 * 1000) from rounding up.
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t k = NearestRank(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

double HighestSupportedQuantile(size_t n) {
  static constexpr double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
  double best = 0.0;
  for (double q : kLadder) {
    if (SamplesBeyond(n, q) >= 10) best = q;
  }
  return best;
}

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.p50 = Percentile(values, 0.5);
  s.p99 = Percentile(values, 0.99);
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  s.supported_q = HighestSupportedQuantile(values.size());
  return s;
}

std::vector<double> WindowQuantiles(const std::vector<double>& values,
                                    double q, size_t windows) {
  windows = std::min(windows, values.size());
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    auto begin = values.begin() +
                 static_cast<std::ptrdiff_t>(values.size() * w / windows);
    auto end = values.begin() +
               static_cast<std::ptrdiff_t>(values.size() * (w + 1) / windows);
    per_window.push_back(Percentile(std::vector<double>(begin, end), q));
  }
  return per_window;
}

}  // namespace perfbench
