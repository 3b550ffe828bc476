#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/random.h"

namespace sim {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MeanVarTest, ComputesMoments) {
  MeanVar mv;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    mv.Record(x);
  }
  EXPECT_EQ(mv.count(), 8u);
  EXPECT_DOUBLE_EQ(mv.mean(), 5.0);
  EXPECT_NEAR(mv.variance(), 32.0 / 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(mv.min(), 2.0);
  EXPECT_DOUBLE_EQ(mv.max(), 9.0);
}

TEST(MeanVarTest, EmptyIsZero) {
  MeanVar mv;
  EXPECT_EQ(mv.mean(), 0.0);
  EXPECT_EQ(mv.variance(), 0.0);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int64_t v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 63);
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 63);
  EXPECT_EQ(h.Percentile(0.5), 31);
}

TEST(HistogramTest, LargeValuesBoundedRelativeError) {
  Histogram h;
  const int64_t value = 5'780;  // Jakiro's mean latency, in ns
  h.Record(value);
  const int64_t p = h.Percentile(0.5);
  EXPECT_GE(p, value);
  EXPECT_LE(static_cast<double>(p - value), static_cast<double>(value) / 64.0 + 1);
}

TEST(HistogramTest, MeanIsExactRegardlessOfBinning) {
  Histogram h;
  h.Record(1000);
  h.Record(3000);
  EXPECT_DOUBLE_EQ(h.mean(), 2000.0);
}

TEST(HistogramTest, PercentileMonotonic) {
  Histogram h;
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBounded(1'000'000)));
  }
  int64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    int64_t p = h.Percentile(q);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(HistogramTest, CdfIsCompleteAndMonotone) {
  Histogram h;
  Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBounded(60'000)));
  }
  auto cdf = h.Cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0.0;
  for (const auto& pt : cdf) {
    EXPECT_GE(pt.cumulative, prev);
    prev = pt.cumulative;
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative, 1.0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(100);
  b.Record(200);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 100);
  EXPECT_EQ(a.max(), 300);
  EXPECT_DOUBLE_EQ(a.mean(), 200.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(1.0), 0);
}

// ---- Edge-case regression pins ------------------------------------------------
// These lock down behaviors callers (the metrics exporter, the bench CDF
// printer) rely on: empty histograms read as all-zero, quantiles clamp to
// [0, 1], negative samples clamp to 0, and a zero-count RecordN is a no-op.

TEST(HistogramTest, EmptyReadsAsZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Percentile(1.0), 0);
  EXPECT_TRUE(h.Cdf().empty());
}

TEST(HistogramTest, QuantileBoundariesAndClamping) {
  Histogram h;
  h.Record(1);
  h.Record(100);  // 64 <= 100 < 128: still an exact bucket (shift is 0)
  // q = 0 resolves to the lowest non-empty bucket, q = 1 to the highest.
  EXPECT_EQ(h.Percentile(0.0), 1);
  EXPECT_EQ(h.Percentile(1.0), 100);
  // Out-of-range quantiles clamp instead of reading out of bounds.
  EXPECT_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(1.5), h.Percentile(1.0));
}

TEST(HistogramTest, NegativeValuesClampInAllAccessors) {
  Histogram h;
  h.Record(7);
  h.Record(-1000);  // clamped to 0: must drag min to 0, not go negative
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 7);
  EXPECT_EQ(h.mean(), 3.5);  // sum counts the clamped 0, not -1000
  EXPECT_EQ(h.Percentile(0.0), 0);
}

TEST(HistogramTest, RecordNZeroIsNoOp) {
  Histogram h;
  h.RecordN(42, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);  // min/max must not latch the value of an empty record
  h.RecordN(42, 3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
}

TEST(HistogramTest, MergeWithEmptyPreservesBothDirections) {
  Histogram a;
  a.Record(9);
  Histogram empty;
  a.Merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 9);
  EXPECT_EQ(a.max(), 9);
  Histogram b;
  b.Merge(a);  // merging into an empty histogram adopts min/max
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.min(), 9);
  EXPECT_EQ(b.max(), 9);
}

// ---- Storage that grows with the largest sample --------------------------------
// The histogram allocates buckets only up to its largest sample. These pin
// that it reads exactly like one that holds all 4096 buckets from the start.

// All 4096 buckets up front, binned by the same log-linear formula: 64 exact
// buckets, then 64 sub-buckets per power of two.
class DenseReference {
 public:
  void Record(int64_t value) {
    value = std::max<int64_t>(value, 0);
    ++buckets_[static_cast<size_t>(Index(value))];
    ++count_;
    max_ = std::max(max_, value);
  }

  int64_t Percentile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[static_cast<size_t>(i)];
      if (static_cast<double>(seen) >= target && seen > 0) {
        return std::min(UpperEdge(i), max_);
      }
    }
    return max_;
  }

  std::vector<Histogram::CdfPoint> Cdf() const {
    std::vector<Histogram::CdfPoint> points;
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (buckets_[static_cast<size_t>(i)] == 0) {
        continue;
      }
      seen += buckets_[static_cast<size_t>(i)];
      points.push_back({std::min(UpperEdge(i), max_),
                        static_cast<double>(seen) / static_cast<double>(count_)});
    }
    return points;
  }

 private:
  static constexpr int kBuckets = 4096;

  static int Index(int64_t value) {
    if (value < 64) {
      return static_cast<int>(value);
    }
    const uint64_t v = static_cast<uint64_t>(value);
    const int msb = 63 - std::countl_zero(v);
    const int sub = static_cast<int>((v >> (msb - 6)) & 63);
    return std::min((msb - 5) * 64 + sub, kBuckets - 1);
  }

  static int64_t UpperEdge(int index) {
    if (index < 64) {
      return index;
    }
    const uint64_t end = (64 + static_cast<uint64_t>(index % 64) + 1) << (index / 64 - 1);
    return static_cast<int64_t>(end - 1);
  }

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
  int64_t max_ = 0;
};

void ExpectMatches(const Histogram& h, const DenseReference& ref) {
  for (double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.Percentile(q), ref.Percentile(q)) << "q = " << q;
  }
  const std::vector<Histogram::CdfPoint> got = h.Cdf();
  const std::vector<Histogram::CdfPoint> want = ref.Cdf();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << "point " << i;
    EXPECT_EQ(got[i].cumulative, want[i].cumulative) << "point " << i;
  }
}

// A value of magnitude 2^k for k uniform in [0, 62], uniform within the
// octave: every bucket group is reachable, not just the common ones.
int64_t SpreadValue(Rng& rng) {
  const int msb = static_cast<int>(rng.NextBounded(63));
  const uint64_t low = uint64_t{1} << msb;
  return static_cast<int64_t>(low + rng.NextBounded(low));
}

TEST(HistogramStorageTest, MatchesDenseReferenceAcrossTheRange) {
  Rng rng(41);
  Histogram h;
  DenseReference ref;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = SpreadValue(rng);
    h.Record(v);
    ref.Record(v);
    if (i % 4000 == 0) {
      ExpectMatches(h, ref);  // also while the extent is still growing
    }
  }
  ExpectMatches(h, ref);
}

TEST(HistogramStorageTest, MatchesDenseReferenceForSmallSamples) {
  // Everything below the first extent's 2^16 ns bound, plus negatives.
  Rng rng(43);
  Histogram h;
  DenseReference ref;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.NextInRange(-10, 65535);
    h.Record(v);
    ref.Record(v);
  }
  ExpectMatches(h, ref);
}

TEST(HistogramStorageTest, MergeShortExtentIntoLongAndBack) {
  Rng rng(47);
  Histogram short_a;
  Histogram long_a;
  DenseReference ref;
  for (int i = 0; i < 1000; ++i) {
    const int64_t small = rng.NextInRange(0, 5000);
    short_a.Record(small);
    ref.Record(small);
    const int64_t big = SpreadValue(rng);
    long_a.Record(big);
    ref.Record(big);
  }
  const Histogram short_b = short_a;
  const Histogram long_b = long_a;

  long_a.Merge(short_b);  // short into long
  EXPECT_EQ(long_a.count(), 2000u);
  ExpectMatches(long_a, ref);

  short_a.Merge(long_b);  // long into short: the target grows
  EXPECT_EQ(short_a.count(), 2000u);
  EXPECT_EQ(short_a.max(), long_a.max());
  EXPECT_DOUBLE_EQ(short_a.mean(), long_a.mean());
  ExpectMatches(short_a, ref);
}

TEST(HistogramStorageTest, ResetThenRecordReadsOnlyNewSamples) {
  Histogram h;
  h.Record(int64_t{1} << 40);  // a long extent, kept across the reset
  h.Record(3);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.Cdf().empty());
  h.Record(5);
  h.Record(7);
  DenseReference ref;
  ref.Record(5);
  ref.Record(7);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 7);
  ExpectMatches(h, ref);
}

TEST(HistogramStorageTest, EmptyHistogramCopiesAndMerges) {
  const Histogram empty;
  Histogram copy = empty;
  copy.Merge(empty);
  EXPECT_EQ(copy.count(), 0u);
  EXPECT_EQ(copy.Percentile(0.5), 0);
  EXPECT_TRUE(copy.Cdf().empty());

  Histogram a;
  a.Record(100'000);  // beyond the first extent
  a.Merge(copy);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.Percentile(1.0), 100'000);
  copy.Merge(a);
  EXPECT_EQ(copy.count(), 1u);
  EXPECT_EQ(copy.min(), 100'000);
  EXPECT_EQ(copy.Percentile(0.5), a.Percentile(0.5));
}

TEST(HistogramStorageTest, HugeValuesLandInTheTopGroup) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Histogram h;
  DenseReference ref;
  for (int64_t v : {int64_t{1} << 62, kMax, int64_t{10}}) {
    h.Record(v);
    ref.Record(v);
  }
  EXPECT_EQ(h.Percentile(1.0), kMax);
  EXPECT_GE(h.Percentile(0.5), int64_t{1} << 62);
  EXPECT_EQ(h.Percentile(0.0), 10);
  ASSERT_EQ(h.Cdf().size(), 3u);
  EXPECT_EQ(h.Cdf().back().value, kMax);
  ExpectMatches(h, ref);
}

// Property sweep: percentile error is bounded by 1/64 relative for any value.
class HistogramErrorTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(HistogramErrorTest, RelativeErrorBounded) {
  Histogram h;
  const int64_t v = GetParam();
  h.Record(v);
  const int64_t p = h.Percentile(0.99);
  EXPECT_GE(p, v);
  EXPECT_LE(static_cast<double>(p), static_cast<double>(v) * (1.0 + 1.0 / 64.0) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistogramErrorTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 1000, 4096, 100000,
                                           1'000'000, 123'456'789, 10'000'000'000LL));

TEST(FormatMopsTest, FormatsWithPrecision) {
  EXPECT_EQ(FormatMops(5.5234), "5.52");
  EXPECT_EQ(FormatMops(2.1, 1), "2.1");
}

}  // namespace
}  // namespace sim
