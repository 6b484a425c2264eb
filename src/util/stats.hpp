// Small statistics toolkit used by the benchmark harnesses to aggregate
// repeated runs (the paper reports averages over series of executions).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace aiac::util {

/// Streaming mean/variance via Welford's algorithm; O(1) memory.
class OnlineStats {
 public:
  void add(double x) noexcept;
  /// Merges another accumulator (parallel-friendly Chan et al. update).
  void merge(const OnlineStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Five-number-plus summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};

/// Computes a Summary; copies and sorts internally (input left untouched).
Summary summarize(std::span<const double> xs);

/// Linear-interpolation percentile, q in [0,1]. Requires sorted input.
double percentile_sorted(std::span<const double> sorted, double q);

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Geometric mean; requires strictly positive values.
double geometric_mean(std::span<const double> xs);

}  // namespace aiac::util
