// Pooled-QP connection tier (docs/connections.md): M logical clients over N
// server UD QPs. The scaling contracts under test:
//
//   * connection ids are unique while live, and a disconnect frees the id;
//   * the server's QP census (Fabric::LiveQpCount) and registered-memory
//     census stay flat however many logical clients connect — connection
//     state must not grow with client count;
//   * requests from all logical clients dispatch through the one RpcServer
//     handler table and round-trip correctly, including under injected
//     datagram loss (retransmit + duplicate filter);
//   * Connect and Disconnect survive loss: neither leaks nor strands a cid;
//   * a retransmit budget runs out in bounded time, and the client serves
//     on once the loss clears;
//   * the checker's cid-scoped invariant flags aliasing/double-release.

#include "src/conn/pooled.h"

#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/rfp/wire.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace conn {
namespace {

constexpr uint16_t kEcho = 1;

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

rfp::HandlerResult Echo(const rfp::HandlerContext&, std::span<const std::byte> req,
                        std::span<std::byte> resp) {
  std::memcpy(resp.data(), req.data(), req.size());
  return rfp::HandlerResult{req.size(), sim::Nanos(300)};
}

std::string AsString(std::span<const std::byte> bytes, size_t n) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), n);
}

// A started echo server and one client node on a fabric of their own, for
// tests that set datagram loss or a seed (which the fixture's fabric does
// not) or that fault the server-client link.
struct Testbed {
  Testbed(double loss, uint64_t seed) : fabric(engine, Config(loss, seed)) {
    rpc.RegisterHandler(kEcho, Echo);
    server.Start();
  }
  static rdma::FabricConfig Config(double loss, uint64_t seed) {
    rdma::FabricConfig fc;
    fc.unreliable_loss_prob = loss;
    fc.seed = seed;
    return fc;
  }

  sim::Engine engine;
  rdma::Fabric fabric;
  rdma::Node& server_node{fabric.AddNode("server")};
  rdma::Node& client_node{fabric.AddNode("client")};
  rfp::RpcServer rpc{fabric, server_node, 1};
  PooledServer server{fabric, rpc};
};

class PooledTest : public ::testing::Test {
 protected:
  PooledTest() {
    rpc_ = std::make_unique<rfp::RpcServer>(fabric_, server_node_, 2);
    rpc_->RegisterHandler(kEcho, Echo);
  }

  PooledServer* MakeServer() {
    pooled_ = std::make_unique<PooledServer>(fabric_, *rpc_);
    pooled_->Start();
    return pooled_.get();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node& server_node_{fabric_.AddNode("server")};
  std::unique_ptr<rfp::RpcServer> rpc_;
  std::unique_ptr<PooledServer> pooled_;
};

TEST_F(PooledTest, ConnectAssignsUniqueCidsAndDisconnectFreesThem) {
  PooledServer* server = MakeServer();
  std::vector<std::unique_ptr<PooledClient>> clients;
  for (int i = 0; i < 8; ++i) {
    rdma::Node& node = fabric_.AddNode("client" + std::to_string(i));
    clients.push_back(std::make_unique<PooledClient>(fabric_, node, *server));
  }
  int done = 0;
  for (auto& client : clients) {
    engine_.Spawn([](PooledClient* c, int* out) -> sim::Task<void> {
      co_await c->Connect();
      ++*out;
    }(client.get(), &done));
  }
  engine_.RunUntil(sim::Millis(1));
  ASSERT_EQ(done, 8);

  std::set<uint32_t> cids;
  for (const auto& client : clients) {
    EXPECT_TRUE(client->connected());
    EXPECT_NE(client->cid(), 0u);
    cids.insert(client->cid());
  }
  EXPECT_EQ(cids.size(), 8u);  // no aliasing
  EXPECT_EQ(server->live_connections(), 8u);
  EXPECT_EQ(server->connects(), 8u);

  for (auto& client : clients) {
    engine_.Spawn([](PooledClient* c) -> sim::Task<void> { co_await c->Disconnect(); }(
        client.get()));
  }
  engine_.RunUntil(sim::Millis(2));
  EXPECT_EQ(server->live_connections(), 0u);
  EXPECT_EQ(server->disconnects(), 8u);
}

TEST_F(PooledTest, ManyClientsShareFewQpsWithFlatServerCensus) {
  PooledServer* server = MakeServer();
  // The pooled tier itself owns the only server QPs: census == N.
  EXPECT_EQ(fabric_.LiveQpCount(server_node_), static_cast<size_t>(kPooledQps));
  const size_t bytes_before = fabric_.RegisteredBytes(server_node_);
  const uint64_t regs_before = fabric_.RegistrationCount(server_node_);

  constexpr int kClients = 12;
  constexpr int kCalls = 5;
  std::vector<std::unique_ptr<PooledClient>> clients;
  int done = 0;
  for (int i = 0; i < kClients; ++i) {
    rdma::Node& node = fabric_.AddNode("client" + std::to_string(i));
    clients.push_back(std::make_unique<PooledClient>(fabric_, node, *server));
    engine_.Spawn([](PooledClient* c, int id, int* out) -> sim::Task<void> {
      co_await c->Connect();
      std::vector<std::byte> resp(256);
      for (int k = 0; k < kCalls; ++k) {
        const std::string msg = "c" + std::to_string(id) + "-m" + std::to_string(k);
        const size_t n = co_await c->Call(
            kEcho, std::as_bytes(std::span(msg.data(), msg.size())), resp);
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(resp.data()), n), msg);
      }
      co_await c->Disconnect();
      ++*out;
    }(clients.back().get(), i, &done));
  }
  engine_.RunUntil(sim::Millis(20));
  EXPECT_EQ(done, kClients);
  EXPECT_EQ(server->requests_served(), static_cast<uint64_t>(kClients * kCalls));
  // M clients came and went; the server-side footprint never moved.
  EXPECT_EQ(fabric_.LiveQpCount(server_node_), static_cast<size_t>(kPooledQps));
  EXPECT_EQ(fabric_.RegisteredBytes(server_node_), bytes_before);
  EXPECT_EQ(fabric_.RegistrationCount(server_node_), regs_before);
}

TEST_F(PooledTest, OneEndpointPlaysManyLogicalConnectionsSequentially) {
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  PooledClient client(fabric_, node, *server);
  const size_t client_bytes = fabric_.RegisteredBytes(node);

  constexpr int kGenerations = 50;
  int done = 0;
  engine_.Spawn([](PooledClient* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> resp(64);
    for (int g = 0; g < kGenerations; ++g) {
      co_await c->Connect();
      const size_t n = co_await c->Call(kEcho, AsBytes("gen"), resp);
      EXPECT_EQ(n, 3u);
      co_await c->Disconnect();
      ++*out;
    }
  }(&client, &done));
  engine_.RunUntil(sim::Millis(20));

  EXPECT_EQ(done, kGenerations);
  EXPECT_EQ(server->connects(), static_cast<uint64_t>(kGenerations));
  EXPECT_EQ(server->live_connections(), 0u);
  // The connect fast path does no MR work: the client's footprint is its
  // construction-time slot span, across all fifty logical connections.
  EXPECT_EQ(fabric_.RegisteredBytes(node), client_bytes);
}

TEST_F(PooledTest, RetransmitsAndFiltersDuplicatesUnderLoss) {
  Testbed bed(/*loss=*/0.2, /*seed=*/7);
  PooledClient client(bed.fabric, bed.client_node, bed.server);

  constexpr int kCalls = 100;
  int done = 0;
  bed.engine.Spawn([](PooledClient* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> resp(64);
    co_await c->Connect();
    for (int k = 0; k < kCalls; ++k) {
      const std::string msg = "m" + std::to_string(k);
      const size_t n = co_await c->Call(kEcho, AsBytes(msg), resp);
      // Every call matched its own seq: duplicate replies (a retransmitted
      // request re-served after its first reply also arrived) were filtered.
      EXPECT_EQ(AsString(resp, n), msg);
      ++*out;
    }
  }(&client, &done));
  bed.engine.RunUntil(sim::Millis(100));

  EXPECT_EQ(done, kCalls);
  // 20% loss each way is ~36% per round trip: retransmits are unavoidable,
  // and the handlers being idempotent means retransmitted executions are
  // harmless.
  EXPECT_GT(client.stats().retransmits, 10u);
  EXPECT_GT(client.stats().sends, client.stats().calls);
  EXPECT_EQ(client.stats().failures, 0u);
}

// Fifty Connect/Call/Disconnect generations at 20% loss each way, over
// several seeds. A lost connect reply makes the client retransmit its
// connect, and the server answers with the cid it already assigned that
// reply address, not a second one. A lost disconnect ack makes the client
// retransmit a disconnect for a cid the server already released, and the
// server acknowledges it rather than dropping it until the budget runs out.
TEST_F(PooledTest, ConnectAndDisconnectSurviveLoss) {
  constexpr int kGenerations = 50;
  for (const uint64_t seed : {1u, 2u, 3u, 7u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Testbed bed(/*loss=*/0.2, seed);
    PooledClient client(bed.fabric, bed.client_node, bed.server);
    int done = 0;
    std::string error;
    bed.engine.Spawn([](PooledClient* c, int* out, std::string* caught) -> sim::Task<void> {
      std::vector<std::byte> resp(64);
      try {
        for (int g = 0; g < kGenerations; ++g) {
          co_await c->Connect();
          const std::string msg = "gen" + std::to_string(g);
          const size_t n = co_await c->Call(kEcho, AsBytes(msg), resp);
          EXPECT_EQ(AsString(resp, n), msg);
          co_await c->Disconnect();
          ++*out;
        }
      } catch (const std::exception& e) {
        *caught = e.what();
      }
    }(&client, &done, &error));
    bed.engine.RunUntil(sim::Millis(100));

    EXPECT_EQ(error, "");
    EXPECT_EQ(done, kGenerations);
    EXPECT_FALSE(client.connected());
    EXPECT_EQ(bed.server.live_connections(), 0u);
    EXPECT_EQ(bed.server.connects(), bed.server.disconnects());
    EXPECT_EQ(bed.server.connects(), static_cast<uint64_t>(kGenerations));
    EXPECT_GT(client.stats().retransmits, 0u);
  }
}

// Every lost datagram costs the whole retransmit timeout: at 20% loss each
// way the median call is one clean round trip, and the 99th percentile
// carries at least one kDatagramRetryTimeoutNs.
TEST_F(PooledTest, LatencyTailReflectsRetransmitTimeouts) {
  Testbed bed(/*loss=*/0.2, /*seed=*/7);
  PooledClient client(bed.fabric, bed.client_node, bed.server);
  sim::Histogram latency;
  bed.engine.Spawn([](sim::Engine* eng, PooledClient* c, sim::Histogram* lat) -> sim::Task<void> {
    std::vector<std::byte> resp(64);
    co_await c->Connect();
    for (int i = 0; i < 200; ++i) {
      const sim::Time start = eng->now();
      co_await c->Call(kEcho, AsBytes("x"), resp);
      lat->Record(eng->now() - start);
    }
  }(&bed.engine, &client, &latency));
  bed.engine.RunUntil(sim::Millis(200));

  EXPECT_EQ(latency.count(), 200u);
  EXPECT_LT(latency.Percentile(0.5), 10'000);
  EXPECT_GT(latency.Percentile(0.99), kDatagramRetryTimeoutNs);
}

// Under total loss an exchange sends once plus kDatagramMaxRetransmits
// times, kDatagramRetryTimeoutNs apart, and gives up one timeout after its
// last retransmit.
TEST_F(PooledTest, ExchangeFailsAfterMaxRetransmits) {
  Testbed bed(/*loss=*/1.0, /*seed=*/7);  // black hole
  PooledClient client(bed.fabric, bed.client_node, bed.server);
  bed.engine.Spawn([](PooledClient* c) -> sim::Task<void> { co_await c->Connect(); }(&client));
  EXPECT_THROW(bed.engine.RunUntil(sim::Millis(5)), std::runtime_error);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.stats().failures, 1u);
  EXPECT_EQ(client.stats().sends, 1u + static_cast<uint64_t>(kDatagramMaxRetransmits));
  EXPECT_EQ(bed.engine.now() / kDatagramRetryTimeoutNs, kDatagramMaxRetransmits + 1);
}

// A loss burst on one link that outlasts a call's whole retransmit budget
// fails that call; once it clears, the same client and cid serve on: the
// datagram path holds no transport state to repair.
TEST_F(PooledTest, BudgetExhaustsUnderSustainedPairLossThenRecovers) {
  Testbed bed(/*loss=*/0.0, /*seed=*/7);  // only the pair fault drops
  PooledClient client(bed.fabric, bed.client_node, bed.server);
  bool first_failed = false;
  std::string second;
  bed.engine.Spawn([](Testbed* b, PooledClient* c, bool* failed,
                      std::string* out) -> sim::Task<void> {
    co_await c->Connect();
    rdma::LinkFault burst;
    burst.loss_prob = 1.0;  // sustained black hole on this pair only
    const uint32_t server_id = b->server_node.id();
    const uint32_t client_id = b->client_node.id();
    b->fabric.SetLinkFault(server_id, client_id, burst);
    // The burst outlasts one send plus kDatagramMaxRetransmits retransmits.
    b->engine.ScheduleAfter((kDatagramMaxRetransmits + 2) * kDatagramRetryTimeoutNs,
                            [b, server_id, client_id] { b->fabric.ClearLinkFault(server_id, client_id); });
    std::vector<std::byte> resp(64);
    try {
      co_await c->Call(kEcho, AsBytes("void"), resp);
    } catch (const std::runtime_error&) {
      *failed = true;  // budget exhausted: every transmit lost
    }
    co_await b->engine.Sleep(2 * kDatagramRetryTimeoutNs);  // outlive the burst
    const size_t n = co_await c->Call(kEcho, AsBytes("back"), resp);
    out->assign(AsString(resp, n));
  }(&bed, &client, &first_failed, &second));
  bed.engine.RunUntil(sim::Millis(2));

  EXPECT_TRUE(first_failed);
  EXPECT_EQ(client.stats().failures, 1u);
  EXPECT_EQ(client.stats().retransmits, static_cast<uint64_t>(kDatagramMaxRetransmits));
  EXPECT_EQ(second, "back");
}

// A request delayed (not dropped) past the retransmit timeout is served
// twice, and both replies arrive. The later one targets a completed seq and
// is filtered, never surfaced as another call's response.
TEST_F(PooledTest, LateOriginalReplyAfterRetransmitIsFiltered) {
  Testbed bed(/*loss=*/0.0, /*seed=*/7);
  PooledClient client(bed.fabric, bed.client_node, bed.server);
  int correct = 0;
  bed.engine.Spawn([](Testbed* b, PooledClient* c, int* out) -> sim::Task<void> {
    co_await c->Connect();
    rdma::LinkFault slow;
    slow.extra_delay_ns = sim::Micros(30);  // past the 20 us retransmit timeout
    const uint32_t server_id = b->server_node.id();
    const uint32_t client_id = b->client_node.id();
    b->fabric.SetLinkFault(server_id, client_id, slow);
    b->engine.ScheduleAfter(sim::Micros(25),
                            [b, server_id, client_id] { b->fabric.ClearLinkFault(server_id, client_id); });
    std::vector<std::byte> resp(64);
    for (int i = 0; i < 10; ++i) {
      const std::string msg = "dup" + std::to_string(i);
      const size_t n = co_await c->Call(kEcho, AsBytes(msg), resp);
      if (AsString(resp, n) == msg) {
        ++*out;
      }
    }
  }(&bed, &client, &correct));
  bed.engine.RunUntil(sim::Millis(2));

  EXPECT_EQ(correct, 10);  // every call matched its own seq
  EXPECT_GE(client.stats().retransmits, 1u);
  EXPECT_GE(client.stats().duplicates, 1u);  // the late original reply
  EXPECT_EQ(client.stats().failures, 0u);
  EXPECT_GE(bed.server.requests_served(), 11u);  // the delayed request was re-served
}

// More clients than one server QP's share of the shared receive slots
// (kPooledRecvSlots / kPooledQps), all connected through that QP, call at
// once: the burst overflows its posted RECVs, the dropped datagrams are
// counted, and retransmits heal every call.
TEST_F(PooledTest, RecvSlotOverflowDropsRequestsAndRetransmitsHeal) {
  PooledServer* server = MakeServer();
  constexpr int kClients = kPooledRecvSlots / kPooledQps + 16;
  constexpr int kNodes = 8;
  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(&fabric_.AddNode("client" + std::to_string(n)));
  }
  std::vector<std::unique_ptr<PooledClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(
        std::make_unique<PooledClient>(fabric_, *nodes[static_cast<size_t>(i % kNodes)], *server));
    // PickQp is round-robin: skip the other QPs so every client lands on QP 0.
    for (int q = 1; q < kPooledQps; ++q) {
      server->PickQp();
    }
  }
  // Connect one client at a time, so only the calls burst.
  engine_.Spawn([](std::vector<std::unique_ptr<PooledClient>>* cs) -> sim::Task<void> {
    for (auto& c : *cs) {
      co_await c->Connect();
    }
  }(&clients));
  engine_.RunUntil(sim::Millis(1));
  ASSERT_EQ(server->live_connections(), static_cast<size_t>(kClients));
  ASSERT_EQ(server->recv_overflows(), 0u);

  int done = 0;
  for (auto& client : clients) {
    engine_.Spawn([](PooledClient* c, int* out) -> sim::Task<void> {
      std::vector<std::byte> resp(64);
      const size_t n = co_await c->Call(kEcho, AsBytes("b"), resp);
      EXPECT_EQ(AsString(resp, n), "b");
      ++*out;
    }(client.get(), &done));
  }
  engine_.RunUntil(sim::Millis(50));

  EXPECT_EQ(done, kClients);
  EXPECT_GT(server->recv_overflows(), 0u);
}

TEST_F(PooledTest, UnknownRpcIdIsDroppedAndCallFails) {
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  PooledClient client(fabric_, node, *server);

  bool threw = false;
  std::string got;
  engine_.Spawn([](PooledClient* c, bool* failed, std::string* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(64);
    try {
      co_await c->Call(/*rpc_id=*/999, AsBytes("nobody home"), resp);
    } catch (const std::runtime_error&) {
      *failed = true;  // every transmit was dropped, so the client gives up
    }
    const size_t n = co_await c->Call(kEcho, AsBytes("still serving"), resp);
    out->assign(AsString(resp, n));
  }(&client, &threw, &got));
  engine_.RunUntil(sim::Millis(5));

  EXPECT_TRUE(threw);
  EXPECT_EQ(got, "still serving");
  // One drop per transmit: the first send plus every retransmit.
  EXPECT_EQ(server->dropped_requests(), 1u + static_cast<uint64_t>(kDatagramMaxRetransmits));
  EXPECT_EQ(client.stats().failures, 1u);
  EXPECT_EQ(server->requests_served(), 1u);
}

// A reply larger than the caller's buffer throws std::length_error instead
// of reporting bytes it did not copy; the client's next call succeeds.
TEST_F(PooledTest, OversizedReplyThrowsLengthErrorAndClientServesOn) {
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  PooledClient client(fabric_, node, *server);
  std::string error;
  std::string got;
  engine_.Spawn([](PooledClient* c, std::string* caught, std::string* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> small(16);
    try {
      co_await c->Call(kEcho, AsBytes(std::string(64, 'x')), small);
    } catch (const std::length_error& e) {
      *caught = e.what();
    }
    std::vector<std::byte> resp(64);
    const size_t n = co_await c->Call(kEcho, AsBytes("fits"), resp);
    out->assign(reinterpret_cast<const char*>(resp.data()), n);
  }(&client, &error, &got));
  engine_.RunUntil(sim::Millis(2));
  EXPECT_EQ(error, "conn pooled: response larger than output buffer");
  EXPECT_EQ(got, "fits");
  EXPECT_EQ(client.stats().retransmits, 0u);
}

// Junk datagrams from a raw UD QP — 0 bytes, 3 bytes, a header whose size
// field claims more than the datagram carries, and one a byte larger than a
// receive slot — are each counted as a dropped request, and a real client's
// call succeeds after them.
TEST_F(PooledTest, RuntDatagramsAreCountedDropsAndServerServesOn) {
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  rdma::QueuePair* raw = fabric_.CreateUd(node);
  const size_t oversized =
      rfp::kReqHeaderBytes + sizeof(uint16_t) + kPooledMaxMessageBytes + 1;
  rdma::MemoryRegion* junk = node.RegisterMemory(oversized, rdma::kAccessLocal);
  rfp::RequestHeader header;
  rfp::wire::PackPooledRequest(header, /*size=*/100, /*cid=*/1, /*seq=*/1);
  junk->Store(0, header);
  PooledClient client(fabric_, node, *server);
  std::string got;
  engine_.Spawn([](rdma::QueuePair* qp, rdma::MemoryRegion* mr, rdma::AddressHandle to,
                   PooledClient* c, std::string* out) -> sim::Task<void> {
    const uint32_t short_of_size = rfp::kReqHeaderBytes + sizeof(uint16_t);
    for (const uint32_t len :
         {uint32_t{0}, uint32_t{3}, short_of_size, static_cast<uint32_t>(mr->size())}) {
      const rdma::WorkCompletion wc = co_await qp->SendTo(to, *mr, 0, len);
      EXPECT_TRUE(wc.ok());
    }
    co_await c->Connect();
    std::vector<std::byte> resp(64);
    const size_t n = co_await c->Call(kEcho, AsBytes("after junk"), resp);
    out->assign(reinterpret_cast<const char*>(resp.data()), n);
  }(raw, junk, server->address(0), &client, &got));
  engine_.RunUntil(sim::Millis(2));
  EXPECT_EQ(server->dropped_requests(), 4u);
  EXPECT_EQ(got, "after junk");
  EXPECT_EQ(server->requests_served(), 1u);
}

// A pooled request carries its cid where a channel request carries the
// replication epoch, so the epoch gate cannot check it: a gated rpc id is
// never served on the pooled path, not even by a replica that would
// redirect it. Every transmit is a counted drop and the handler never runs;
// ungated ids serve on.
TEST_F(PooledTest, GatedRpcIsDroppedNotServed) {
  constexpr uint16_t kGated = 7;
  int gated_runs = 0;
  rpc_->RegisterHandler(kGated, [&gated_runs](const rfp::HandlerContext&,
                                              std::span<const std::byte>, std::span<std::byte>) {
    ++gated_runs;
    return rfp::HandlerResult{0, sim::Nanos(300)};
  });
  rpc_->GateRpc(kGated);
  rpc_->SetReplGate(/*serving=*/false, /*epoch=*/3, /*leader_hint=*/9);
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  PooledClient client(fabric_, node, *server);
  bool threw = false;
  std::string got;
  engine_.Spawn([](PooledClient* c, bool* failed, std::string* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(64);
    try {
      co_await c->Call(kGated, AsBytes("fenced"), resp);
    } catch (const std::runtime_error&) {
      *failed = true;
    }
    const size_t n = co_await c->Call(kEcho, AsBytes("ungated"), resp);
    out->assign(reinterpret_cast<const char*>(resp.data()), n);
  }(&client, &threw, &got));
  engine_.RunUntil(sim::Millis(5));

  EXPECT_TRUE(threw);
  EXPECT_EQ(gated_runs, 0);
  EXPECT_EQ(server->dropped_requests(), 1u + static_cast<uint64_t>(kDatagramMaxRetransmits));
  EXPECT_EQ(got, "ungated");
  EXPECT_EQ(server->requests_served(), 1u);
}

// A datagram shorter than a ResponseHeader is no reply, whatever stale bytes
// its receive slot holds. Client A's calls leave replies in the pool span
// that client B on the same node gets back, so B's second receive slot still
// holds A's reply to seq 2 — the seq of B's first call. A 0-byte datagram
// landing there is counted in duplicates and skipped, and B's call returns
// its own reply.
TEST_F(PooledTest, RuntReplyIsSkippedNotTakenForTheReply) {
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  rdma::MemoryRegion* empty = node.RegisterMemory(64, rdma::kAccessLocal);
  auto a = std::make_unique<PooledClient>(fabric_, node, *server);
  engine_.Spawn([](PooledClient* c) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(64);
    co_await c->Call(kEcho, AsBytes("first"), resp);
    co_await c->Call(kEcho, AsBytes("second"), resp);
  }(a.get()));
  engine_.RunUntil(sim::Millis(1));
  a.reset();

  rdma::QueuePair* raw = fabric_.CreateUd(node);
  PooledClient b(fabric_, node, *server);
  // B's QP is the next one the fabric created.
  const rdma::AddressHandle b_addr{node.id(), raw->qp_num() + 1};
  std::string got;
  engine_.Spawn([](PooledClient* c, rdma::QueuePair* qp, rdma::MemoryRegion* mr,
                   rdma::AddressHandle to, std::string* out) -> sim::Task<void> {
    co_await c->Connect();
    const rdma::WorkCompletion wc = co_await qp->SendTo(to, *mr, 0, 0);
    EXPECT_TRUE(wc.ok());
    std::vector<std::byte> resp(64);
    const size_t n = co_await c->Call(kEcho, AsBytes("hello"), resp);
    out->assign(reinterpret_cast<const char*>(resp.data()), n);
  }(&b, raw, empty, b_addr, &got));
  engine_.RunUntil(sim::Millis(3));

  EXPECT_EQ(got, "hello");
  EXPECT_EQ(b.stats().duplicates, 1u);
  EXPECT_EQ(b.stats().retransmits, 0u);
}

TEST_F(PooledTest, StrictCheckerAcceptsTheConnectionLifecycle) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  rfp::RpcServer rpc(fabric, server_node, 1);
  rpc.RegisterHandler(kEcho, Echo);
  PooledServer server(fabric, rpc);
  server.Start();
  PooledClient client(fabric, client_node, server);

  int done = 0;
  engine.Spawn([](PooledClient* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> resp(64);
    for (int g = 0; g < 5; ++g) {
      co_await c->Connect();
      co_await c->Call(kEcho, AsBytes("ok"), resp);
      co_await c->Disconnect();
      ++*out;
    }
  }(&client, &done));
  EXPECT_NO_THROW(engine.RunUntil(sim::Millis(5)));
  EXPECT_EQ(done, 5);
}

TEST_F(PooledTest, CheckerFlagsCidAliasingAndDoubleRelease) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  check::FabricChecker* checker = fabric.checker();
  ASSERT_NE(checker, nullptr);

  const int server_tag = 0;  // any stable address stands in for a server
  checker->OnCidAssign(&server_tag, 42);
  EXPECT_THROW(checker->OnCidAssign(&server_tag, 42), check::ViolationError);
  checker->OnCidRelease(&server_tag, 42);
  EXPECT_THROW(checker->OnCidRelease(&server_tag, 42), check::ViolationError);
  // Scoping is per server: the same cid on another server is independent.
  const int other_tag = 0;
  EXPECT_NO_THROW(checker->OnCidAssign(&other_tag, 7));
  EXPECT_NO_THROW(checker->OnCidAssign(&server_tag, 7));
}

// The datagram-RPC contract the pooled tier took over from the standalone UD
// RPC tier it replaced, under that tier's test names: a lossless fabric and
// a two-thread RpcServer, as in PooledTest.
class UdRpcTest : public PooledTest {};

TEST_F(UdRpcTest, LosslessEchoRoundTrip) {
  PooledServer* server = MakeServer();
  PooledClient client(fabric_, fabric_.AddNode("client"), *server);
  std::string got;
  engine_.Spawn([](PooledClient* c, std::string* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(1024);
    const size_t n = co_await c->Call(kEcho, AsBytes("datagram rpc"), resp);
    out->assign(AsString(resp, n));
  }(&client, &got));
  engine_.RunUntil(sim::Millis(2));
  EXPECT_EQ(got, "datagram rpc");
  EXPECT_EQ(client.stats().retransmits, 0u);
  EXPECT_EQ(server->requests_served(), 1u);
}

// Two clients on one node land on different server QPs and run fifty calls
// each, concurrently.
TEST_F(UdRpcTest, ManySequentialCalls) {
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  PooledClient c0(fabric_, node, *server);
  PooledClient c1(fabric_, node, *server);
  int done = 0;
  auto driver = [](PooledClient* c, int n, int* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(1024);
    for (int i = 0; i < n; ++i) {
      const std::string msg = "m" + std::to_string(i);
      const size_t got = co_await c->Call(kEcho, AsBytes(msg), resp);
      EXPECT_EQ(AsString(resp, got), msg);
    }
    ++*out;
  };
  engine_.Spawn(driver(&c0, 50, &done));
  engine_.Spawn(driver(&c1, 50, &done));
  engine_.RunUntil(sim::Millis(10));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(server->requests_served(), 100u);
}

TEST_F(UdRpcTest, UnknownRpcIdIsCountedDropAndServerServesOn) {
  PooledServer* server = MakeServer();
  PooledClient client(fabric_, fabric_.AddNode("client"), *server);
  bool unknown_failed = false;
  std::string got;
  engine_.Spawn([](PooledClient* c, bool* failed, std::string* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(1024);
    try {
      co_await c->Call(/*rpc_id=*/99, AsBytes("nobody home"), resp);
    } catch (const std::runtime_error&) {
      *failed = true;  // every transmit was dropped, so the client gives up
    }
    const size_t n = co_await c->Call(kEcho, AsBytes("still serving"), resp);
    out->assign(AsString(resp, n));
  }(&client, &unknown_failed, &got));
  engine_.RunUntil(sim::Millis(2));
  EXPECT_TRUE(unknown_failed);
  EXPECT_EQ(got, "still serving");
  // One drop per transmit of the unknown-id call: the first send plus every
  // retransmit.
  EXPECT_EQ(server->dropped_requests(), 1u + static_cast<uint64_t>(kDatagramMaxRetransmits));
  EXPECT_EQ(server->requests_served(), 1u);
}

// A reply larger than the caller's buffer throws std::length_error instead
// of reporting bytes it did not copy; the client's next call succeeds, with
// no retransmit.
TEST_F(UdRpcTest, OversizedReplyThrowsLengthErrorAndClientServesOn) {
  PooledServer* server = MakeServer();
  PooledClient client(fabric_, fabric_.AddNode("client"), *server);
  std::string error;
  std::string got;
  engine_.Spawn([](PooledClient* c, std::string* caught, std::string* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> small(16);
    try {
      co_await c->Call(kEcho, AsBytes(std::string(64, 'x')), small);
    } catch (const std::length_error& e) {
      *caught = e.what();
    }
    std::vector<std::byte> resp(64);
    const size_t n = co_await c->Call(kEcho, AsBytes("fits"), resp);
    out->assign(AsString(resp, n));
  }(&client, &error, &got));
  engine_.RunUntil(sim::Millis(2));
  EXPECT_EQ(error, "conn pooled: response larger than output buffer");
  EXPECT_EQ(got, "fits");
  EXPECT_EQ(client.stats().retransmits, 0u);
  EXPECT_EQ(server->requests_served(), 2u);
}

// Zero-filled datagrams shorter than a request header (0 and 3 bytes from a
// raw UD QP), and one a byte larger than a receive slot, are counted as
// drops, their RECVs reposted, and the server serves on.
TEST_F(UdRpcTest, RuntDatagramsAreCountedDropsAndServerServesOn) {
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  rdma::QueuePair* raw = fabric_.CreateUd(node);
  const size_t oversized = rfp::kReqHeaderBytes + sizeof(uint16_t) + kPooledMaxMessageBytes + 1;
  rdma::MemoryRegion* junk = node.RegisterMemory(oversized, rdma::kAccessLocal);
  PooledClient client(fabric_, node, *server);
  std::string got;
  engine_.Spawn([](rdma::QueuePair* qp, rdma::MemoryRegion* mr, rdma::AddressHandle to,
                   PooledClient* c, std::string* out) -> sim::Task<void> {
    for (const uint32_t len : {uint32_t{0}, uint32_t{3}, static_cast<uint32_t>(mr->size())}) {
      const rdma::WorkCompletion wc = co_await qp->SendTo(to, *mr, 0, len);
      EXPECT_TRUE(wc.ok());
    }
    co_await c->Connect();
    std::vector<std::byte> resp(64);
    const size_t n = co_await c->Call(kEcho, AsBytes("after junk"), resp);
    out->assign(AsString(resp, n));
  }(raw, junk, server->address(0), &client, &got));
  engine_.RunUntil(sim::Millis(2));
  EXPECT_EQ(server->dropped_requests(), 3u);
  EXPECT_EQ(got, "after junk");
  EXPECT_EQ(server->requests_served(), 1u);
}

// 20% loss each way at the fabric's default seed (PooledTest's loss tests
// pin seed 7).
class LossyUdRpcTest : public ::testing::Test {
 protected:
  Testbed bed_{/*loss=*/0.2, rdma::FabricConfig{}.seed};
};

TEST_F(LossyUdRpcTest, RetransmitsRecoverFromHeavyLoss) {
  PooledClient client(bed_.fabric, bed_.client_node, bed_.server);
  int completed = 0;
  bed_.engine.Spawn([](PooledClient* c, int* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(1024);
    for (int i = 0; i < 100; ++i) {
      const std::string msg = "lossy" + std::to_string(i);
      const size_t got = co_await c->Call(kEcho, AsBytes(msg), resp);
      // Every call matched its own seq: duplicate replies were filtered.
      EXPECT_EQ(AsString(resp, got), msg);
      ++*out;
    }
  }(&client, &completed));
  bed_.engine.RunUntil(sim::Millis(100));
  EXPECT_EQ(completed, 100);
  // With ~36% round-trip loss, retransmits are unavoidable.
  EXPECT_GT(client.stats().retransmits, 10u);
  EXPECT_EQ(client.stats().failures, 0u);
}

}  // namespace
}  // namespace conn
