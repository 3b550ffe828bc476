#include "src/rdma/nic.h"

#include <gtest/gtest.h>

#include "src/rdma/config.h"
#include "src/sim/engine.h"

namespace rdma {
namespace {

class NicTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  NicConfig config_;
};

TEST_F(NicTest, OutboundBaseServiceMatchesSaturationRate) {
  Nic nic(engine_, config_);
  // 474 ns service <=> 2.11 MOPS saturated pipeline.
  EXPECT_EQ(nic.OutboundServiceTime(Opcode::kRead, 0), 474);
}

TEST_F(NicTest, ReadAndWriteShareThePipelineCapWhenUncontended) {
  // The saturated out-bound rate is the same for READ and WRITE (the
  // paper's 2.11 MOPS is measured with WRITEs); latency differences live on
  // the requester-state path, not the pipeline.
  Nic nic(engine_, config_);
  EXPECT_EQ(nic.OutboundServiceTime(Opcode::kWrite, 32),
            nic.OutboundServiceTime(Opcode::kRead, 0));
}

TEST_F(NicTest, InboundGapMatchesPeakRate) {
  Nic nic(engine_, config_);
  // 89 ns gap <=> ~11.24 MOPS peak in-bound.
  EXPECT_EQ(nic.InboundServiceTime(32), 89);
  EXPECT_EQ(nic.InboundServiceTime(256), 89);
}

TEST_F(NicTest, InboundBecomesBandwidthBoundForLargePayloads) {
  Nic nic(engine_, config_);
  // 4096 B / 4.5 B/ns = 910 ns, far above the 89 ns gap.
  EXPECT_NEAR(static_cast<double>(nic.InboundServiceTime(4096)), 4096 / 4.5, 1.0);
}

TEST_F(NicTest, InboundAndOutboundConvergeAtTwoKilobytes) {
  Nic nic(engine_, config_);
  // At >= 2 KB both directions are bandwidth-bound (paper Fig 5).
  const sim::Time in = nic.InboundServiceTime(2048);
  const sim::Time out = nic.OutboundServiceTime(Opcode::kWrite, 2048);
  EXPECT_NEAR(static_cast<double>(in), static_cast<double>(out), 32.0);
}

TEST_F(NicTest, AsymmetryRatioAboutFiveForSmallPayloads) {
  Nic nic(engine_, config_);
  const double ratio = static_cast<double>(nic.OutboundServiceTime(Opcode::kRead, 0)) /
                       static_cast<double>(nic.InboundServiceTime(32));
  // Paper: 11.26 / 2.11 ~ 5.3x.
  EXPECT_GT(ratio, 4.5);
  EXPECT_LT(ratio, 6.0);
}

TEST_F(NicTest, OutboundContentionInflatesBeyondFreeThreads) {
  Nic nic(engine_, config_);
  const sim::Time base = nic.OutboundServiceTime(Opcode::kRead, 0);
  for (int i = 0; i < kOutboundFreeThreads; ++i) {
    nic.BeginOutbound();
  }
  EXPECT_EQ(nic.OutboundServiceTime(Opcode::kRead, 0), base);
  for (int i = 0; i < 10; ++i) {
    nic.BeginOutbound();
  }
  EXPECT_GT(nic.OutboundServiceTime(Opcode::kRead, 0), base);
}

TEST_F(NicTest, ReadIssueInflatesFasterThanWriteIssue) {
  // The client-side contention that drives Fig 4's decline is READ-specific
  // (requesters hold per-READ state); WRITE issue degrades only mildly
  // (Fig 3 near-flat, Fig 12's gentle ServerReply decline).
  Nic nic(engine_, config_);
  for (int i = 0; i < kOutboundFreeThreads + 4; ++i) {
    nic.BeginOutbound();
  }
  const sim::Time read = nic.OutboundServiceTime(Opcode::kRead, 0);
  const sim::Time write = nic.OutboundServiceTime(Opcode::kWrite, 32);
  EXPECT_GT(read, write);
  // 4 extra posters: read x1.4, write x1.08.
  EXPECT_NEAR(static_cast<double>(read), 474.0 * 1.4, 2.0);
  EXPECT_NEAR(static_cast<double>(write), 474.0 * 1.08, 2.0);
}

TEST_F(NicTest, InboundServiceIgnoresQpCount) {
  // In-bound serving is pure hardware: QP count on the node is
  // informational only.
  Nic nic(engine_, config_);
  const sim::Time base = nic.InboundServiceTime(32);
  nic.AddActiveQps(500);
  EXPECT_EQ(nic.InboundServiceTime(32), base);
  EXPECT_EQ(nic.active_qps(), 500);
}

TEST_F(NicTest, TwoSidedCostsAreSymmetric) {
  Nic nic(engine_, config_);
  // Issue and serve of a SEND share the same base cost: no asymmetry
  // (the paper's circumstantial evidence in Section 2.2).
  EXPECT_EQ(nic.OutboundServiceTime(Opcode::kSend, 32),
            static_cast<sim::Time>(kTwoSidedTxNs + 0.5));
  EXPECT_EQ(kTwoSidedTxNs, kTwoSidedRxNs);
}

TEST_F(NicTest, CountersTrackOps) {
  Nic nic(engine_, config_);
  engine_.Spawn(nic.IssueOneSided(Opcode::kRead, 0));
  engine_.Spawn(nic.ServeInboundOneSided(32));
  engine_.Run();
  EXPECT_EQ(nic.outbound_ops(), 1u);
  EXPECT_EQ(nic.inbound_ops(), 1u);
}

TEST_F(NicTest, PostOverheadSerializedByPostLock) {
  Nic nic(engine_, config_);
  engine_.Spawn(nic.PostOverhead());
  engine_.Spawn(nic.PostOverhead());
  engine_.Run();
  // Two posts: lock section is serialized (2 * 20ns), CPU portions overlap.
  EXPECT_GE(engine_.now(), static_cast<sim::Time>(2 * kPostLockNs));
}

}  // namespace
}  // namespace rdma
