// Statistics accumulators used by the experiment harnesses: running
// mean/variance (Welford) and exact percentiles over stored samples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cadet::util {

/// Welford running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  // sample variance (n-1)
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores all samples; exact quantiles by sorting on demand.
class Samples {
 public:
  void add(double x) { values_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const;
  double max() const;
  /// Linear-interpolated quantile, q in [0,1]. Requires at least one sample.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  const std::vector<double>& values() const noexcept { return values_; }

  /// "mean=…, p50=…, p95=…, min=…, max=… (n=…)" summary line.
  std::string summary() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace cadet::util
