#include "src/rdma/fabric.h"

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "tests/testutil.h"

namespace rdma {
namespace {

TEST(FabricTest, NodesGetSequentialIds) {
  sim::Engine engine;
  Fabric fabric(engine);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  EXPECT_EQ(a.id(), 0u);
  EXPECT_EQ(b.id(), 1u);
  EXPECT_EQ(fabric.node_count(), 2u);
  EXPECT_EQ(&fabric.node(0), &a);
}

TEST(FabricTest, ConnectRcWiresPeers) {
  sim::Engine engine;
  Fabric fabric(engine);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [qa, qb] = fabric.ConnectRc(a, b);
  EXPECT_EQ(qa->local_node(), &a);
  EXPECT_EQ(qa->peer_node(), &b);
  EXPECT_EQ(qb->local_node(), &b);
  EXPECT_EQ(qb->peer_node(), &a);
  EXPECT_EQ(qa->type(), QpType::kRc);
  EXPECT_NE(qa->qp_num(), qb->qp_num());
}

TEST(FabricTest, ConnectionsCountTowardsQpPressure) {
  sim::Engine engine;
  Fabric fabric(engine);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  EXPECT_EQ(a.nic().active_qps(), 0);
  fabric.ConnectRc(a, b);
  fabric.ConnectRc(a, b);
  EXPECT_EQ(a.nic().active_qps(), 2);
  EXPECT_EQ(b.nic().active_qps(), 2);
  fabric.CreateUd(a);
  EXPECT_EQ(a.nic().active_qps(), 3);
}

TEST(FabricTest, FindQpResolvesAddresses) {
  sim::Engine engine;
  Fabric fabric(engine);
  Node& a = fabric.AddNode("a");
  QueuePair* ud = fabric.CreateUd(a);
  EXPECT_EQ(fabric.FindQp(a.id(), ud->qp_num()), ud);
  EXPECT_EQ(fabric.FindQp(a.id(), 9999), nullptr);
  EXPECT_EQ(fabric.FindQp(77, ud->qp_num()), nullptr);
}

TEST(FabricTest, WireLatencyScalesRoundTrip) {
  sim::Engine engine;
  Fabric fabric(engine);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [qa, qb] = fabric.ConnectRc(a, b);
  MemoryRegion* local = a.RegisterMemory(64, kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, kAccessRemoteRead);
  rfptest::RunSync(engine, qa->Read(*local, 0, remote->remote_key(), 0, 8));
  // A lone READ pays its fixed host costs, the jittered issue and serve
  // stations, and the wire twice (request out, data back). The jitter band
  // is narrower than one hop, so the bounds pin both hops.
  const double fixed = kPostLockNs + kPostCpuNs + 8 / NicConfig{}.bandwidth_bytes_per_ns +
                       kReadStateCpuNs + kCompletionCpuNs;
  const double stations = NicConfig{}.outbound_issue_ns + kInboundMinGapNs;
  const double two_hops = 2.0 * static_cast<double>(kWireLatencyNs);
  ASSERT_LT(2.0 * kServiceJitter * stations, static_cast<double>(kWireLatencyNs));
  EXPECT_GE(static_cast<double>(engine.now()),
            fixed + two_hops + (1.0 - kServiceJitter) * stations - 4.0);
  EXPECT_LE(static_cast<double>(engine.now()),
            fixed + two_hops + (1.0 + kServiceJitter) * stations + 4.0);
  (void)qb;
}

TEST(FabricTest, UnreliableLossDropsUcWrites) {
  sim::Engine engine;
  FabricConfig lossy;
  lossy.unreliable_loss_prob = 1.0;  // drop everything
  Fabric fabric(engine, lossy);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [qa, qb] = fabric.ConnectUc(a, b);
  MemoryRegion* local = a.RegisterMemory(64, kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, kAccessRemoteWrite);
  local->Store<uint32_t>(0, 0x1234);
  WorkCompletion wc = rfptest::RunSync(engine, qa->Write(*local, 0, remote->remote_key(), 0, 4));
  EXPECT_TRUE(wc.ok());  // the sender cannot tell
  engine.Run();
  EXPECT_EQ(remote->Load<uint32_t>(0), 0u);  // but nothing arrived
  (void)qb;
}

TEST(FabricTest, RcIsNeverLossyEvenWhenConfigured) {
  sim::Engine engine;
  FabricConfig lossy;
  lossy.unreliable_loss_prob = 1.0;
  Fabric fabric(engine, lossy);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [qa, qb] = fabric.ConnectRc(a, b);
  MemoryRegion* local = a.RegisterMemory(64, kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, kAccessRemoteWrite);
  local->Store<uint32_t>(0, 0x1234);
  WorkCompletion wc = rfptest::RunSync(engine, qa->Write(*local, 0, remote->remote_key(), 0, 4));
  EXPECT_TRUE(wc.ok());
  EXPECT_EQ(remote->Load<uint32_t>(0), 0x1234u);
  (void)qb;
}

TEST(FabricTest, PartialLossRateApproximatelyHonored) {
  sim::Engine engine;
  FabricConfig lossy;
  lossy.unreliable_loss_prob = 0.3;
  Fabric fabric(engine, lossy);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [qa, qb] = fabric.ConnectUc(a, b);
  MemoryRegion* local = a.RegisterMemory(64, kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, kAccessRemoteWrite);
  int delivered = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    remote->Store<uint32_t>(0, 0);
    local->Store<uint32_t>(0, 1);
    rfptest::RunSync(engine, qa->Write(*local, 0, remote->remote_key(), 0, 4));
    engine.Run();
    delivered += remote->Load<uint32_t>(0) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / trials, 0.7, 0.05);
  (void)qb;
}

}  // namespace
}  // namespace rdma
