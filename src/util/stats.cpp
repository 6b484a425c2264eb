#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aiac::util {

void OnlineStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of empty span");
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  OnlineStats acc;
  for (double x : sorted) acc.add(x);
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = percentile_sorted(sorted, 0.25);
  s.median = percentile_sorted(sorted, 0.50);
  s.p75 = percentile_sorted(sorted, 0.75);
  return s;
}

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double geometric_mean(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("geometric mean of empty span");
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) throw std::invalid_argument("geometric mean needs x > 0");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace aiac::util
