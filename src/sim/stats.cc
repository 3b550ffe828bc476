#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace sim {

void MeanVar::Record(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double MeanVar::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double MeanVar::stddev() const { return std::sqrt(variance()); }

namespace {

// 64 exact buckets, then 64 sub-buckets per power of two up to 2^62.
constexpr int kMaxBuckets = Histogram::kSubBuckets * 64;

}  // namespace

int Histogram::BucketIndex(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  if (value < kLinearLimit) {
    return static_cast<int>(value);
  }
  const uint64_t v = static_cast<uint64_t>(value);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - 6;  // log2(kSubBuckets)
  const int sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
  const int index = (msb - 5) * kSubBuckets + sub;
  return std::min(index, kMaxBuckets - 1);
}

int64_t Histogram::BucketUpperEdge(int index) {
  if (index < kLinearLimit) {
    return index;
  }
  const int group = index / kSubBuckets;  // >= 1
  const int sub = index % kSubBuckets;
  const int msb = group + 5;
  const int shift = msb - 6;
  // Unsigned: the top bucket int64 samples reach ends at 2^63 - 1, one
  // short of a value int64 cannot hold.
  const uint64_t end = (uint64_t{kSubBuckets} + static_cast<uint64_t>(sub) + 1) << shift;
  return static_cast<int64_t>(end - 1);
}

void Histogram::Grow(int index) {
  const int floor = buckets_.empty() ? BucketIndex(kInitialLimit - 1) : 0;
  const int last = std::max(index, floor);
  buckets_.resize(static_cast<size_t>((last / kSubBuckets + 1) * kSubBuckets), 0);
}

void Histogram::Record(int64_t value) { RecordN(value, 1); }

void Histogram::RecordN(int64_t value, uint64_t n) {
  if (n == 0) {
    return;
  }
  if (value < 0) {
    value = 0;
  }
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  const int index = BucketIndex(value);
  if (static_cast<size_t>(index) >= buckets_.size()) {
    Grow(index);
  }
  buckets_[static_cast<size_t>(index)] += n;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

int64_t Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target && seen > 0) {
      return std::min(BucketUpperEdge(static_cast<int>(i)), max_);
    }
  }
  return max_;
}

std::vector<Histogram::CdfPoint> Histogram::Cdf() const {
  std::vector<CdfPoint> points;
  if (count_ == 0) {
    return points;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    seen += buckets_[i];
    points.push_back(CdfPoint{std::min(BucketUpperEdge(static_cast<int>(i)), max_),
                              static_cast<double>(seen) / static_cast<double>(count_)});
  }
  return points;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (buckets_.size() < other.buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::string FormatMops(double mops, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, mops);
  return std::string(buf);
}

}  // namespace sim
