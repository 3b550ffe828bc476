// Measurement helpers: counters, running moments, and a log-linear latency
// histogram with percentile/CDF extraction (HdrHistogram-style binning:
// constant relative error, O(1) record).

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace sim {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Welford running mean/variance.
class MeanVar {
 public:
  void Record(double x);
  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  void Reset() { *this = MeanVar(); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Log-linear histogram for non-negative integer samples (latencies in ns).
// Values up to kLinearLimit are recorded exactly; above that, buckets have
// kSubBuckets subdivisions per power of two, bounding relative error by
// 1/kSubBuckets.
//
// Bucket storage grows with the largest sample: an empty histogram holds
// none, the first sample allocates the buckets for every value below
// kInitialLimit (or up to that sample, if larger), and later samples extend
// it by whole groups of kSubBuckets. A channel carries several histograms
// that mostly stay empty or small, so this keeps idle channels cheap.
class Histogram {
 public:
  static constexpr int kSubBuckets = 64;
  static constexpr int64_t kLinearLimit = kSubBuckets;
  // The first sample covers values below 2^16 ns (65.5 us): every latency a
  // steady-state call records fits, so a warmed histogram does not grow.
  static constexpr int64_t kInitialLimit = int64_t{1} << 16;

  // Records a sample. Negative values clamp to 0 (they can only come from
  // subtracting timestamps across a warmup boundary and mean "effectively
  // instant"); RecordN with n = 0 is a no-op and does not touch min/max.
  void Record(int64_t value);
  void RecordN(int64_t value, uint64_t n);

  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }

  // Value at quantile q (q=0.5 is the median). Returns the upper edge of the
  // containing bucket, clamped to the observed max. Edge cases: q outside
  // [0, 1] clamps to the boundary; q=0 resolves to the lowest non-empty
  // bucket; an empty histogram returns 0 for any q.
  int64_t Percentile(double q) const;

  // (value, cumulative fraction) pairs for every non-empty bucket, suitable
  // for plotting a CDF (paper Figs. 13 and 20).
  struct CdfPoint {
    int64_t value;
    double cumulative;
  };
  std::vector<CdfPoint> Cdf() const;

  // Empties the histogram; it keeps its bucket storage.
  void Reset();

  // Merges another histogram into this one (same binning by construction),
  // growing this one's storage to cover the other's.
  void Merge(const Histogram& other);

 private:
  static int BucketIndex(int64_t value);
  static int64_t BucketUpperEdge(int index);
  // Extends storage to hold bucket `index`, in whole groups of kSubBuckets.
  void Grow(int index);

  std::vector<uint64_t> buckets_;  // empty until the first sample
  uint64_t count_ = 0;
  double sum_ = 0.0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

// Formats a throughput in MOPS with fixed precision, e.g. "5.52".
std::string FormatMops(double mops, int precision = 2);

}  // namespace sim

#endif  // SRC_SIM_STATS_H_
