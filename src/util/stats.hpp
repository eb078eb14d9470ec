#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace tealeaf {

/// Single-pass running statistics (Welford) for timing/benchmark samples.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = RunningStats(); }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed log-bucket histogram of positive samples (latencies in seconds):
/// O(1) memory whatever the sample count, and trivially copyable.  Each
/// decade from kMin up is kPerDecade equal log steps (10^(1/64), 3.7%
/// wide); samples outside [kMin, kMin·10^kDecades) land in the end
/// buckets.  A quantile reads the bucket holding the sample of its rank
/// and returns the bucket's geometric middle, clamped to the smallest and
/// largest samples seen: within half a bucket of that sample.
class LogHistogram {
 public:
  static constexpr double kMin = 1.0e-7;
  static constexpr int kDecades = 12;
  static constexpr int kPerDecade = 64;
  static constexpr int kBuckets = kDecades * kPerDecade;

  void add(double x) {
    ++counts_[static_cast<std::size_t>(bucket(x))];
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::int64_t count() const { return n_; }

  /// The q-quantile (q in [0, 1]) as the bucket of the sample of rank
  /// ⌊q·(count − 1)⌋ reads it; 0 with no samples.
  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const auto rank = static_cast<std::int64_t>(
        std::clamp(q, 0.0, 1.0) * static_cast<double>(n_ - 1));
    std::int64_t seen = 0;
    int b = 0;
    for (; b < kBuckets - 1; ++b) {
      seen += counts_[static_cast<std::size_t>(b)];
      if (seen > rank) break;
    }
    const double mid = kMin * std::pow(10.0, (b + 0.5) / kPerDecade);
    return std::clamp(mid, min_, max_);
  }

 private:
  [[nodiscard]] static int bucket(double x) {
    if (!(x > kMin)) return 0;
    const double b = std::log10(x / kMin) * kPerDecade;
    return b < kBuckets ? static_cast<int>(b) : kBuckets - 1;
  }

  std::array<std::int64_t, kBuckets> counts_{};
  std::int64_t n_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace tealeaf
