#include "src/rfp/params.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/config.h"
#include "src/sim/time.h"

namespace rfp {
namespace {

// A synthetic envelope shaped like the paper's ConnectX-3 (Fig 5):
// flat ~11.2 MOPS to 256 B, bandwidth decay beyond, out-bound 2.11 MOPS.
HardwareProfile PaperLikeProfile() {
  HardwareProfile p;
  p.inbound_read = {{16, 11.2}, {32, 11.2},  {64, 11.2},  {128, 11.2}, {256, 11.2},
                    {384, 10.9}, {512, 8.8},  {640, 7.0},  {768, 5.9},  {1024, 4.4},
                    {1536, 2.9}, {2048, 2.2}, {4096, 1.1}, {8192, 0.55}};
  p.outbound_write_mops = 2.11;
  p.fetch_rtt_ns = 1300.0;
  return p;
}

TEST(ProfileTest, InterpolationIsMonotoneAndClamped) {
  HardwareProfile p = PaperLikeProfile();
  EXPECT_DOUBLE_EQ(p.InboundMopsAt(8), 11.2);     // clamped below
  EXPECT_DOUBLE_EQ(p.InboundMopsAt(16384), 0.55); // clamped above
  EXPECT_DOUBLE_EQ(p.InboundMopsAt(256), 11.2);
  const double mid = p.InboundMopsAt(448);        // between 384 and 512
  EXPECT_LT(mid, 10.9);
  EXPECT_GT(mid, 8.8);
}

TEST(KneeTest, DetectLFindsTheFlatRegionEdge) {
  // Paper Section 3.2: L = 256 bytes on their RNIC.
  EXPECT_EQ(DetectL(PaperLikeProfile()), 256u);
}

TEST(KneeTest, DetectHFindsTheAdvantageEdge) {
  // Paper Section 3.2: H = 1024 bytes; at 1 KB in-bound (4.4) still beats
  // out-bound (2.11) by >10%, at 1.5 KB it does not.
  EXPECT_EQ(DetectH(PaperLikeProfile()), 1024u);
}

TEST(KneeTest, RetryBoundMatchesPaperScale) {
  // P* = 16 / (2.11 * 1.1) ~ 6.9 us; at ~1.3 us per fetch, N ~ 5.
  const int n = DeriveRetryBound(PaperLikeProfile());
  EXPECT_GE(n, 4);
  EXPECT_LE(n, 6);
}

TEST(KneeTest, IncompleteProfileThrows) {
  HardwareProfile empty;
  EXPECT_THROW(DetectL(empty), std::invalid_argument);
  EXPECT_THROW(DetectH(empty), std::invalid_argument);
  EXPECT_THROW(DeriveRetryBound(empty), std::invalid_argument);
}

TEST(SelectorTest, SmallUniformResultsPickSmallestUsefulF) {
  HardwareProfile p = PaperLikeProfile();
  std::vector<uint32_t> sizes(100, 32);  // 32 B values: 40 B with header
  ParamChoice choice = SelectParameters(p, sizes);
  // Everything fits at F = L = 256 and I(F) is maximal there.
  EXPECT_EQ(choice.fetch_size, 256u);
  EXPECT_GE(choice.retry_threshold, 1);
}

TEST(SelectorTest, LargerResultsPushFUp) {
  HardwareProfile p = PaperLikeProfile();
  std::vector<uint32_t> sizes(100, 500);  // needs 508 B fetched
  ParamChoice choice = SelectParameters(p, sizes);
  EXPECT_GE(choice.fetch_size, 508u);
  EXPECT_LE(choice.fetch_size, 1024u);
}

TEST(SelectorTest, MixedSizesTradeOffCoverageAgainstIops) {
  HardwareProfile p = PaperLikeProfile();
  // Bimodal: mostly small, some mid-size results.
  std::vector<uint32_t> sizes;
  for (int i = 0; i < 80; ++i) {
    sizes.push_back(32);
  }
  for (int i = 0; i < 20; ++i) {
    sizes.push_back(600);
  }
  ParamChoice choice = SelectParameters(p, sizes);
  // The selector lands inside [L, H] and beats both extremes' scores.
  EXPECT_GE(choice.fetch_size, 256u);
  EXPECT_LE(choice.fetch_size, 1024u);
  EXPECT_GT(choice.predicted_score, 0.0);
}

TEST(SelectorTest, FStaysWithinExplicitBounds) {
  HardwareProfile p = PaperLikeProfile();
  ASSERT_EQ(DetectL(p), 256u);
  ASSERT_EQ(DetectH(p), 1024u);
  std::vector<uint32_t> sizes(10, 5000);  // larger than H: two fetches always
  ParamChoice choice = SelectParameters(p, sizes);
  EXPECT_GE(choice.fetch_size, 256u);
  EXPECT_LE(choice.fetch_size, 1024u);
  // Nothing fits: the selector minimizes waste by staying at L.
  EXPECT_EQ(choice.fetch_size, 256u);
}

TEST(SelectorTest, LongProcessTimesReduceChosenR) {
  HardwareProfile p = PaperLikeProfile();
  std::vector<uint32_t> sizes(50, 32);
  std::vector<sim::Time> slow_times(50, sim::Micros(50));  // all beyond N retries
  ParamChoice with_slow = SelectParameters(p, sizes, slow_times);
  // All calls fall back to reply mode regardless of R: the enumeration is
  // indifferent, so it keeps the smallest R (cheapest client CPU).
  EXPECT_EQ(with_slow.retry_threshold, 1);
}

TEST(SelectorTest, ShortProcessTimesKeepLargerRUseful) {
  HardwareProfile p = PaperLikeProfile();
  std::vector<uint32_t> sizes(50, 32);
  // ~4 fetch RTTs of process time: calls complete by fetching only if
  // R >= 4, so the selector must pick a large R.
  std::vector<sim::Time> times(50, sim::Nanos(5000));
  ParamChoice choice = SelectParameters(p, sizes, times);
  EXPECT_GE(choice.retry_threshold, 4);
}

TEST(SelectorTest, EmptySamplesThrow) {
  EXPECT_THROW(SelectParameters(PaperLikeProfile(), {}), std::invalid_argument);
}

TEST(SamplerTest, FillsToCapacityThenReplaces) {
  OnlineSampler sampler(10, 42);
  for (uint32_t i = 0; i < 1000; ++i) {
    sampler.Record(i, sim::Nanos(i));
  }
  EXPECT_EQ(sampler.observed(), 1000u);
  EXPECT_EQ(sampler.sizes().size(), 10u);
  // Reservoir property: late observations do appear.
  bool has_late = false;
  for (uint32_t s : sampler.sizes()) {
    has_late |= s >= 500;
  }
  EXPECT_TRUE(has_late);
}

TEST(MeasureProfileTest, DefaultFabricMatchesPaperEnvelope) {
  HardwareProfile p = MeasureProfile(rdma::FabricConfig{});
  EXPECT_NEAR(p.InboundMopsAt(32), 11.2, 0.7);
  EXPECT_NEAR(p.outbound_write_mops, 2.11, 0.2);
  EXPECT_GT(p.fetch_rtt_ns, 800.0);
  EXPECT_LT(p.fetch_rtt_ns, 2000.0);
  // The in-bound engine serves max(kInboundMinGapNs, bytes / bandwidth), so
  // it stays flat up to ~400 B: 384 B is the largest flat size MeasureProfile
  // samples (the paper's RNIC has its knee at 256 B, one size lower).
  EXPECT_EQ(DetectL(p), 384u);
  const int n = DeriveRetryBound(p);
  EXPECT_GE(n, 4);
  EXPECT_LE(n, 7);
}

}  // namespace
}  // namespace rfp
