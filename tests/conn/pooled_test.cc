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
//   * the checker's cid-scoped invariant flags aliasing/double-release.

#include "src/conn/pooled.h"

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/rfp/wire.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace conn {
namespace {

constexpr uint16_t kEcho = 1;

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

class PooledTest : public ::testing::Test {
 protected:
  PooledTest() {
    rpc_ = std::make_unique<rfp::RpcServer>(fabric_, server_node_, 2);
    rpc_->RegisterHandler(kEcho, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                                    std::span<std::byte> resp) {
      std::memcpy(resp.data(), req.data(), req.size());
      return rfp::HandlerResult{req.size(), sim::Nanos(300)};
    });
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
  rdma::FabricConfig fc;
  fc.unreliable_loss_prob = 0.2;
  fc.seed = 7;
  sim::Engine engine;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  rfp::RpcServer rpc(fabric, server_node, 1);
  rpc.RegisterHandler(kEcho, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                                std::span<std::byte> resp) {
    std::memcpy(resp.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), sim::Nanos(300)};
  });
  PooledServer server(fabric, rpc);
  server.Start();
  PooledClient client(fabric, client_node, server);

  constexpr int kCalls = 100;
  int done = 0;
  engine.Spawn([](PooledClient* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> resp(64);
    co_await c->Connect();
    for (int k = 0; k < kCalls; ++k) {
      const std::string msg = "m" + std::to_string(k);
      const size_t n =
          co_await c->Call(kEcho, std::as_bytes(std::span(msg.data(), msg.size())), resp);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(resp.data()), n), msg);
      ++*out;
    }
  }(&client, &done));
  engine.RunUntil(sim::Millis(100));

  EXPECT_EQ(done, kCalls);
  // 20% loss across ~100 round trips: some retransmits are certain, and the
  // handlers being idempotent means retransmitted executions are harmless.
  EXPECT_GT(client.stats().retransmits, 0u);
  EXPECT_GT(client.stats().sends, client.stats().calls);
}

TEST_F(PooledTest, UnknownRpcIdIsDroppedAndCallFails) {
  PooledServer* server = MakeServer();
  rdma::Node& node = fabric_.AddNode("client");
  PooledClient client(fabric_, node, *server);

  bool threw = false;
  engine_.Spawn([](PooledClient* c, bool* out) -> sim::Task<void> {
    co_await c->Connect();
    std::vector<std::byte> resp(64);
    try {
      co_await c->Call(/*rpc_id=*/999, {}, resp);
    } catch (const std::runtime_error&) {
      *out = true;
    }
  }(&client, &threw));
  engine_.RunUntil(sim::Millis(5));

  EXPECT_TRUE(threw);
  // One drop per transmit: the first send plus every retransmit.
  EXPECT_EQ(server->dropped_requests(), 1u + static_cast<uint64_t>(rfp::kDatagramMaxRetransmits));
  EXPECT_EQ(client.stats().failures, 1u);
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
  EXPECT_EQ(server->dropped_requests(), 1u + static_cast<uint64_t>(rfp::kDatagramMaxRetransmits));
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
  rpc.RegisterHandler(kEcho, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                                std::span<std::byte> resp) {
    std::memcpy(resp.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), sim::Nanos(300)};
  });
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

}  // namespace
}  // namespace conn
