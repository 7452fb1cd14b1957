#ifndef RAFIKI_COMMON_STATS_H_
#define RAFIKI_COMMON_STATS_H_

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace rafiki {

/// Fixed-width-bucket histogram over [lo, hi); out-of-range samples land in
/// the first/last bucket. Used for the Figure 8(b)/9(b) accuracy histograms.
/// Memory is O(buckets) regardless of sample count — individual samples are
/// not retained (they used to be, which grew without bound on the serving
/// path).
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);
  size_t BucketCount(size_t i) const { return counts_[i]; }
  size_t num_buckets() const { return counts_.size(); }
  /// Inclusive lower edge of bucket i.
  double BucketLo(size_t i) const;
  size_t total() const { return total_; }
  /// Count of samples in buckets at or above the one containing
  /// `threshold`. Quantized to bucket edges: the threshold is effectively
  /// floored to its bucket's lower edge, so samples in [BucketLo(i),
  /// threshold) of that bucket are included. Exact whenever `threshold`
  /// lies on a bucket edge. Thresholds below `lo` count everything;
  /// thresholds at or above `hi` count nothing (out-of-range samples were
  /// clamped into the edge buckets when added).
  size_t CountAtLeast(double threshold) const;

  std::string ToString() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

/// Log-bucketed latency histogram with quantile queries: geometric buckets
/// spanning [min_value, min_value * growth^buckets), each ~`growth`-1
/// relative resolution (default 10%, 1 us .. ~3000 s). Constant memory,
/// O(buckets) quantile; the serving runtime and the load generator use it
/// for p50/p95/p99. Quantiles return the geometric midpoint of the
/// selected bucket, so their relative error is bounded by the growth
/// factor. Not internally synchronized.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double min_value = 1e-6, double growth = 1.1,
                            size_t buckets = 224);

  void Add(double x);
  void Merge(const LatencyHistogram& other);

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Value at quantile q in [0, 1]; 0 when empty. Q(0) and Q(1) return the
  /// exact observed min/max.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  std::string ToString() const;

 private:
  size_t BucketIndex(double x) const;

  double min_value_;
  double log_growth_;
  std::vector<size_t> counts_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace rafiki

#endif  // RAFIKI_COMMON_STATS_H_
