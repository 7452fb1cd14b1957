#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace rafiki {

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)) {
  RAFIKI_CHECK_GT(hi, lo);
  RAFIKI_CHECK_GT(buckets, 0u);
  counts_.assign(buckets, 0);
}

void Histogram::Add(double x) {
  double idx = (x - lo_) / width_;
  auto i = static_cast<long>(std::floor(idx));
  if (i < 0) i = 0;
  if (i >= static_cast<long>(counts_.size()))
    i = static_cast<long>(counts_.size()) - 1;
  ++counts_[static_cast<size_t>(i)];
  ++total_;
}

double Histogram::BucketLo(size_t i) const {
  return lo_ + static_cast<double>(i) * width_;
}

size_t Histogram::CountAtLeast(double threshold) const {
  auto first = static_cast<long>(std::floor((threshold - lo_) / width_));
  if (first <= 0) return total_;
  size_t begin = std::min(static_cast<size_t>(first), counts_.size());
  size_t sum = 0;
  for (size_t i = begin; i < counts_.size(); ++i) sum += counts_[i];
  return sum;
}

std::string Histogram::ToString() const {
  std::string out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%.2f,%.2f): %zu\n", BucketLo(i),
                  BucketLo(i) + width_, counts_[i]);
    out += buf;
  }
  return out;
}

LatencyHistogram::LatencyHistogram(double min_value, double growth,
                                   size_t buckets)
    : min_value_(min_value), log_growth_(std::log(growth)) {
  RAFIKI_CHECK_GT(min_value, 0.0);
  RAFIKI_CHECK_GT(growth, 1.0);
  RAFIKI_CHECK_GT(buckets, 0u);
  counts_.assign(buckets, 0);
}

size_t LatencyHistogram::BucketIndex(double x) const {
  if (x <= min_value_) return 0;
  auto i = static_cast<long>(std::floor(std::log(x / min_value_) /
                                        log_growth_));
  if (i < 0) i = 0;
  if (i >= static_cast<long>(counts_.size()))
    i = static_cast<long>(counts_.size()) - 1;
  return static_cast<size_t>(i);
}

void LatencyHistogram::Add(double x) {
  ++counts_[BucketIndex(x)];
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  RAFIKI_CHECK_EQ(counts_.size(), other.counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Rank of the requested quantile among the sorted samples (1-based).
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::max<size_t>(rank, 1);
  size_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      // Geometric midpoint of bucket i: [min*g^i, min*g^(i+1)).
      double value =
          min_value_ * std::exp(log_growth_ * (static_cast<double>(i) + 0.5));
      // Never report outside the observed range (edge buckets absorb
      // clamped samples).
      return std::clamp(value, min_, max_);
    }
  }
  return max_;
}

std::string LatencyHistogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.6f p50=%.6f p95=%.6f p99=%.6f max=%.6f",
                count_, mean(), P50(), P95(), P99(), max());
  return buf;
}

}  // namespace rafiki
