// LRU channel cache (docs/connections.md). Contracts under test:
//
//   * a lease hit returns the cached channel — no second AcceptChannel;
//   * capacity (channel count or registered bytes) evicts the
//     least-recently-used idle entry, and the next lease for the evicted key
//     re-establishes with ZERO new MR registrations (the churn contract:
//     rings come from the node pools, tests/mem/churn_test.cc);
//   * when every entry is pinned, the LRU victim is detached (alive until
//     its last lease drops) rather than destroyed under a live caller;
//   * forced Evict destroys idle entries immediately and defers pinned ones.

#include "src/conn/cache.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace conn {
namespace {

constexpr uint16_t kEcho = 1;

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() {
    server_ = std::make_unique<rfp::RpcServer>(fabric_, server_node_, 2);
    server_->RegisterHandler(kEcho, [](const rfp::HandlerContext&,
                                       std::span<const std::byte> req,
                                       std::span<std::byte> resp) {
      std::memcpy(resp.data(), req.data(), req.size());
      return rfp::HandlerResult{req.size(), sim::Nanos(300)};
    });
    server_->Start();
  }

  ~CacheTest() override { server_->Stop(); }

  rdma::Node& Client(int i) {
    while (static_cast<size_t>(i) >= client_nodes_.size()) {
      client_nodes_.push_back(
          &fabric_.AddNode("client" + std::to_string(client_nodes_.size())));
    }
    return *client_nodes_[static_cast<size_t>(i)];
  }

  // One echo round trip over `lease`, driven to completion.
  void Echo(ChannelLease& lease) {
    bool done = false;
    engine_.Spawn([](rfp::RpcClient* stub, bool* out) -> sim::Task<void> {
      const std::string msg = "ping";
      std::vector<std::byte> resp(64);
      const size_t n = co_await stub->Call(
          kEcho, std::as_bytes(std::span(msg.data(), msg.size())), resp);
      EXPECT_EQ(n, 4u);
      *out = true;
    }(lease.stub(), &done));
    engine_.RunUntil(engine_.now() + sim::Millis(2));
    ASSERT_TRUE(done);
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node& server_node_{fabric_.AddNode("server")};
  std::unique_ptr<rfp::RpcServer> server_;
  std::vector<rdma::Node*> client_nodes_;
  rfp::RfpOptions options_;
};

TEST_F(CacheTest, HitReturnsTheSameChannel) {
  ChannelCache cache;
  rfp::Channel* first = nullptr;
  {
    ChannelLease lease = cache.Get(*server_, Client(0), options_, 0);
    ASSERT_TRUE(lease.valid());
    first = lease.channel();
    Echo(lease);
  }
  ChannelLease again = cache.Get(*server_, Client(0), options_, 0);
  EXPECT_EQ(again.channel(), first);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Distinct thread => distinct key => distinct channel.
  ChannelLease other = cache.Get(*server_, Client(0), options_, 1);
  EXPECT_NE(other.channel(), first);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(CacheTest, CountCapacityEvictsLeastRecentlyUsedIdleEntry) {
  CacheOptions copts;
  copts.max_channels = 2;
  ChannelCache cache(copts);

  rfp::Channel* a = nullptr;
  { ChannelLease la = cache.Get(*server_, Client(0), options_, 0); a = la.channel(); }
  { ChannelLease lb = cache.Get(*server_, Client(1), options_, 0); }
  // Touch A so B becomes the LRU entry.
  { ChannelLease la = cache.Get(*server_, Client(0), options_, 0); EXPECT_EQ(la.channel(), a); }

  { ChannelLease lc = cache.Get(*server_, Client(2), options_, 0); }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().detach_evictions, 0u);
  EXPECT_EQ(server_->channels_closed(), 1u);  // B was destroyed outright

  // A survived the eviction — leasing it again is a hit on the same channel.
  const uint64_t misses = cache.stats().misses;
  ChannelLease la = cache.Get(*server_, Client(0), options_, 0);
  EXPECT_EQ(la.channel(), a);
  EXPECT_EQ(cache.stats().misses, misses);
}

TEST_F(CacheTest, ReestablishAfterEvictionDoesZeroRegistrations) {
  CacheOptions copts;
  copts.max_channels = 1;
  ChannelCache cache(copts);

  // Warm both keys once: first-touch arena registration happens here.
  { ChannelLease lease = cache.Get(*server_, Client(0), options_, 0); Echo(lease); }
  { ChannelLease lease = cache.Get(*server_, Client(1), options_, 0); Echo(lease); }

  const uint64_t reg_server = fabric_.RegistrationCount(server_node_);
  const uint64_t dereg_server = fabric_.DeregistrationCount(server_node_);
  const uint64_t reg_c0 = fabric_.RegistrationCount(Client(0));
  const uint64_t reg_c1 = fabric_.RegistrationCount(Client(1));

  // Ping-pong the two keys through the one-slot cache: every Get is a miss
  // that evicts the other entry and re-establishes through the pools.
  for (int round = 0; round < 6; ++round) {
    ChannelLease lease = cache.Get(*server_, Client(round % 2), options_, 0);
    Echo(lease);
  }
  EXPECT_GE(cache.stats().evictions, 6u);

  // The churn contract: connection churn is span recycling, not MR traffic.
  EXPECT_EQ(fabric_.RegistrationCount(server_node_), reg_server);
  EXPECT_EQ(fabric_.DeregistrationCount(server_node_), dereg_server);
  EXPECT_EQ(fabric_.RegistrationCount(Client(0)), reg_c0);
  EXPECT_EQ(fabric_.RegistrationCount(Client(1)), reg_c1);
}

TEST_F(CacheTest, PinnedVictimIsDetachedAndDestroyedOnLastRelease) {
  CacheOptions copts;
  copts.max_channels = 1;
  ChannelCache cache(copts);

  ChannelLease held = cache.Get(*server_, Client(0), options_, 0);
  rfp::Channel* victim = held.channel();
  Echo(held);

  // Capacity forces an eviction but A is pinned: it must be detached, not
  // destroyed — `held` still points at a live (if errored) channel.
  ChannelLease other = cache.Get(*server_, Client(1), options_, 0);
  EXPECT_EQ(cache.stats().detach_evictions, 1u);
  EXPECT_EQ(server_->channels_closed(), 0u);
  EXPECT_EQ(held.channel(), victim);
  // The detached channel reconnects under its next call (PR-2 machinery).
  Echo(held);
  EXPECT_GE(victim->stats().reconnects, 1u);

  held.Release();
  EXPECT_EQ(server_->channels_closed(), 1u);
  EXPECT_TRUE(other.valid());
}

TEST_F(CacheTest, ForcedEvictIsImmediateWhenIdleDeferredWhenPinned) {
  ChannelCache cache;
  { ChannelLease lease = cache.Get(*server_, Client(0), options_, 0); }
  EXPECT_FALSE(cache.Evict(*server_, Client(5), 0));  // unknown key
  EXPECT_TRUE(cache.Evict(*server_, Client(0), 0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(server_->channels_closed(), 1u);

  ChannelLease held = cache.Get(*server_, Client(1), options_, 0);
  EXPECT_TRUE(cache.Evict(*server_, Client(1), 0));
  EXPECT_EQ(cache.stats().detach_evictions, 1u);
  EXPECT_EQ(server_->channels_closed(), 1u);  // deferred past the pin
  held.Release();
  EXPECT_EQ(server_->channels_closed(), 2u);
}

}  // namespace
}  // namespace conn
