#include "src/rfp/rpc.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mem/pool.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace rfp {
namespace {

constexpr uint16_t kEcho = 1;
constexpr uint16_t kUpper = 2;
constexpr uint16_t kSlow = 3;
constexpr uint16_t kBlock = 4;

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : server_node_(&fabric_.AddNode("server")) {}

  RpcServer* MakeServer(int threads) {
    server_ = std::make_unique<RpcServer>(fabric_, *server_node_, threads);
    server_->RegisterHandler(kEcho, [](const HandlerContext&, std::span<const std::byte> req,
                                       std::span<std::byte> resp) {
      std::memcpy(resp.data(), req.data(), req.size());
      return HandlerResult{req.size(), sim::Nanos(300)};
    });
    server_->RegisterHandler(kUpper, [](const HandlerContext&, std::span<const std::byte> req,
                                        std::span<std::byte> resp) {
      for (size_t i = 0; i < req.size(); ++i) {
        resp[i] = static_cast<std::byte>(
            std::toupper(static_cast<unsigned char>(std::to_integer<char>(req[i]))));
      }
      return HandlerResult{req.size(), sim::Nanos(300)};
    });
    server_->RegisterHandler(kSlow, [](const HandlerContext&, std::span<const std::byte> req,
                                       std::span<std::byte> resp) {
      std::memcpy(resp.data(), req.data(), req.size());
      return HandlerResult{req.size(), sim::Micros(20)};
    });
    return server_.get();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* server_node_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(RpcTest, SingleCallRoundTrip) {
  RpcServer* server = MakeServer(1);
  rdma::Node& client_node = fabric_.AddNode("client");
  Channel* ch = server->AcceptChannel(client_node, RfpOptions{}, 0);
  server->Start();

  std::string got;
  engine_.Spawn([](Channel* channel, std::string* out) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(1024);
    size_t n = co_await client.Call(kUpper, AsBytes("hello rfp"), resp);
    out->assign(reinterpret_cast<const char*>(resp.data()), n);
  }(ch, &got));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_EQ(got, "HELLO RFP");
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST_F(RpcTest, MultipleClientsAcrossThreads) {
  RpcServer* server = MakeServer(2);
  const int clients = 6;
  const int calls = 25;
  std::vector<Channel*> channels;
  for (int i = 0; i < clients; ++i) {
    rdma::Node& node = fabric_.AddNode("client" + std::to_string(i));
    channels.push_back(server->AcceptChannel(node, RfpOptions{}, i % 2));
  }
  server->Start();

  int completed = 0;
  for (int i = 0; i < clients; ++i) {
    engine_.Spawn([](Channel* channel, int id, int n, int* done) -> sim::Task<void> {
      RpcClient client(channel);
      std::vector<std::byte> resp(1024);
      for (int k = 0; k < n; ++k) {
        std::string msg = "c" + std::to_string(id) + "-m" + std::to_string(k);
        size_t got = co_await client.Call(kEcho, AsBytes(msg), resp);
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(resp.data()), got), msg);
      }
      ++*done;
    }(channels[static_cast<size_t>(i)], i, calls, &completed));
  }
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  EXPECT_EQ(completed, clients);
  EXPECT_EQ(server->requests_served(), static_cast<uint64_t>(clients * calls));
  // EREW: each thread served only its own channels.
  EXPECT_EQ(server->requests_served_by(0) + server->requests_served_by(1),
            server->requests_served());
  EXPECT_GT(server->requests_served_by(0), 0u);
  EXPECT_GT(server->requests_served_by(1), 0u);
}

TEST_F(RpcTest, HandlerProcessTimeVisibleInResponseHeader) {
  RpcServer* server = MakeServer(1);
  rdma::Node& client_node = fabric_.AddNode("client");
  Channel* ch = server->AcceptChannel(client_node, RfpOptions{}, 0);
  server->Start();

  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(1024);
    co_await client.Call(kSlow, AsBytes("x"), resp);
  }(ch));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_GE(ch->last_server_time_us(), 20);
  EXPECT_LE(ch->last_server_time_us(), 23);
}

TEST_F(RpcTest, SlowHandlerDrivesChannelToReplyMode) {
  RpcServer* server = MakeServer(1);
  rdma::Node& client_node = fabric_.AddNode("client");
  Channel* ch = server->AcceptChannel(client_node, RfpOptions{}, 0);
  server->Start();

  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(1024);
    for (int i = 0; i < 5; ++i) {
      co_await client.Call(kSlow, AsBytes("x"), resp);
    }
  }(ch));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_EQ(ch->client_mode(), Mode::kServerReply);
}

// A request for an unregistered rpc id must not kill the sweep actor: it is
// a counted drop, and the server keeps serving well-formed traffic on its
// other channels for the rest of the run.
TEST_F(RpcTest, UnknownRpcIdIsCountedDropNotFatal) {
  RpcServer* server = MakeServer(1);
  rdma::Node& client_node = fabric_.AddNode("client");
  Channel* bad = server->AcceptChannel(client_node, RfpOptions{}, 0);
  Channel* good = server->AcceptChannel(client_node, RfpOptions{}, 0);
  server->Start();
  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(1024);
    // The drop means no response ever lands; the call just stays pending
    // until the run ends.
    co_await client.Call(999, AsBytes("x"), resp);
  }(bad));
  uint64_t good_calls = 0;
  engine_.Spawn([](Channel* channel, uint64_t* out) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(1024);
    for (int i = 0; i < 20; ++i) {
      co_await client.Call(kEcho, AsBytes("payload"), resp);
    }
    *out = client.calls();
  }(good, &good_calls));
  EXPECT_NO_THROW(engine_.RunUntil(sim::Millis(5)));
  server->Stop();
  EXPECT_EQ(server->malformed_requests(), 1u);
  EXPECT_EQ(good_calls, 20u);
}

// A runt request (shorter than the rpc id) is likewise dropped and counted,
// not thrown out of ServeLoop.
TEST_F(RpcTest, RuntRequestIsCountedDropNotFatal) {
  RpcServer* server = MakeServer(1);
  rdma::Node& client_node = fabric_.AddNode("client");
  Channel* bad = server->AcceptChannel(client_node, RfpOptions{}, 0);
  Channel* good = server->AcceptChannel(client_node, RfpOptions{}, 0);
  server->Start();
  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    // Below RpcClient: a raw one-byte frame, shorter than the uint16 rpc id.
    const std::byte runt{0x7f};
    co_await channel->SubmitCall(std::span<const std::byte>(&runt, 1), {});
    co_await channel->FlushCalls();
  }(bad));
  uint64_t good_calls = 0;
  engine_.Spawn([](Channel* channel, uint64_t* out) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(1024);
    for (int i = 0; i < 20; ++i) {
      co_await client.Call(kEcho, AsBytes("payload"), resp);
    }
    *out = client.calls();
  }(good, &good_calls));
  EXPECT_NO_THROW(engine_.RunUntil(sim::Millis(5)));
  server->Stop();
  EXPECT_EQ(server->malformed_requests(), 1u);
  EXPECT_EQ(good_calls, 20u);
}

// Worker trace-track ids must be distinct across servers and threads; the
// old this-pointer-plus-thread scheme let server A's thread k alias server
// B's thread 0 whenever the heap laid the objects k bytes apart.
TEST_F(RpcTest, WorkerTrackIdsAreDistinctAcrossServersAndThreads) {
  RpcServer* a = MakeServer(2);
  rdma::Node& other = fabric_.AddNode("server2");
  RpcServer b(fabric_, other, 2);
  const uint64_t ids[] = {a->worker_track_id(0), a->worker_track_id(1),
                          b.worker_track_id(0), b.worker_track_id(1)};
  for (size_t i = 0; i < std::size(ids); ++i) {
    for (size_t j = i + 1; j < std::size(ids); ++j) {
      EXPECT_NE(ids[i], ids[j]) << "i=" << i << " j=" << j;
    }
  }
}

TEST_F(RpcTest, LatencyHistogramPopulated) {
  RpcServer* server = MakeServer(1);
  rdma::Node& client_node = fabric_.AddNode("client");
  Channel* ch = server->AcceptChannel(client_node, RfpOptions{}, 0);
  server->Start();
  sim::Histogram latencies;
  engine_.Spawn([](Channel* channel, sim::Histogram* out) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(1024);
    for (int i = 0; i < 30; ++i) {
      co_await client.Call(kEcho, AsBytes("payload"), resp);
    }
    *out = client.latency();
  }(ch, &latencies));
  engine_.RunUntil(sim::Millis(10));
  server->Stop();
  EXPECT_EQ(latencies.count(), 30u);
  // Echo with 0.3 us process time: latency in the single-digit microseconds.
  EXPECT_GT(latencies.mean(), 2000.0);
  EXPECT_LT(latencies.mean(), 10000.0);
}

TEST_F(RpcTest, OversizedChannelRejectedAtAccept) {
  RpcServer* server = MakeServer(1);
  rdma::Node& client_node = fabric_.AddNode("client");
  const size_t server_bytes = mem::Pool::Shared(*server_node_)->in_use_bytes();
  const size_t client_bytes = mem::Pool::Shared(client_node)->in_use_bytes();
  RfpOptions big;
  big.max_message_bytes = ServerOptions{}.max_message_bytes + 1;
  // Dispatch buffers are fixed-size; a channel that could outgrow them must
  // be rejected up front, not corrupt memory later.
  EXPECT_THROW(server->AcceptChannel(client_node, big, 0), std::invalid_argument);
  // A rejected accept builds no channel: no rings are left drawn from either
  // node's pool.
  EXPECT_EQ(mem::Pool::Shared(*server_node_)->in_use_bytes(), server_bytes);
  EXPECT_EQ(mem::Pool::Shared(client_node)->in_use_bytes(), client_bytes);
  for (const int thread : {-1, 1}) {
    EXPECT_THROW(server->AcceptChannel(client_node, RfpOptions{}, thread), std::out_of_range)
        << "thread " << thread;
    EXPECT_EQ(mem::Pool::Shared(*server_node_)->in_use_bytes(), server_bytes);
    EXPECT_EQ(mem::Pool::Shared(client_node)->in_use_bytes(), client_bytes);
  }
  EXPECT_EQ(server->channels_owned_by(0), 0);
}

// A channel accepted while the sweep is suspended inside another channel's
// visit is served in that same sweep: the visit loop re-finds its place in
// the sweep after every visit instead of iterating a snapshot. A third
// channel, accepted right after it with a 100 us request, makes a
// next-sweep service at least 100 us late, so a short gap proves the same
// sweep served it.
TEST_F(RpcTest, ChannelAcceptedDuringSuspendedSweepIsServedInThatSweep) {
  RpcServer server(fabric_, *server_node_, 1);
  rdma::Node& first_node = fabric_.AddNode("client0");
  rdma::Node& late_node = fabric_.AddNode("client1");
  std::vector<std::pair<std::string, sim::Time>> served;
  const auto call = [](Channel* channel, uint16_t rpc_id, std::string tag) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> out(1024);
    co_await client.Call(rpc_id, AsBytes(tag), out);
  };
  server.RegisterHandler(kSlow, [&](const HandlerContext&, std::span<const std::byte> req,
                                    std::span<std::byte> resp) {
    served.emplace_back(std::string(reinterpret_cast<const char*>(req.data()), req.size()),
                        engine_.now());
    // Mid-visit: accept two more channels and have them call at once; their
    // requests land while this 20 us handler still holds the sweep.
    engine_.Spawn(call(server.AcceptChannel(late_node, RfpOptions{}, 0), kEcho, "late"));
    engine_.Spawn(call(server.AcceptChannel(late_node, RfpOptions{}, 0), kBlock, "block"));
    std::memcpy(resp.data(), req.data(), req.size());
    return HandlerResult{req.size(), sim::Micros(20)};
  });
  const auto logged = [&](sim::Time process_ns) {
    return [&, process_ns](const HandlerContext&, std::span<const std::byte> req,
                           std::span<std::byte> resp) {
      served.emplace_back(std::string(reinterpret_cast<const char*>(req.data()), req.size()),
                          engine_.now());
      std::memcpy(resp.data(), req.data(), req.size());
      return HandlerResult{req.size(), process_ns};
    };
  };
  server.RegisterHandler(kEcho, logged(sim::Nanos(300)));
  server.RegisterHandler(kBlock, logged(sim::Micros(100)));
  Channel* first = server.AcceptChannel(first_node, RfpOptions{}, 0);
  server.Start();
  engine_.Spawn(call(first, kSlow, "first"));
  engine_.RunUntil(sim::Millis(2));
  server.Stop();
  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(served[0].first, "first");
  EXPECT_EQ(served[1].first, "late");
  EXPECT_EQ(served[2].first, "block");
  EXPECT_LT(served[1].second - served[0].second, sim::Micros(100));
  EXPECT_EQ(server.channels_owned_by(0), 3);
}

// CloseChannel on a channel whose visit is suspended mid-handler is
// deferred: the channel stays owned (the handler still holds spans into it)
// until the visit ends, then leaves the sweep and returns its rings.
TEST_F(RpcTest, CloseDuringVisitIsDeferredThenRemovesTheChannel) {
  RpcServer* server = MakeServer(1);
  rdma::Node& client_node = fabric_.AddNode("client");
  const size_t server_bytes = mem::Pool::Shared(*server_node_)->in_use_bytes();
  const size_t client_bytes = mem::Pool::Shared(client_node)->in_use_bytes();
  Channel* keep = server->AcceptChannel(client_node, RfpOptions{}, 0);
  Channel* doomed = server->AcceptChannel(client_node, RfpOptions{}, 0);
  EXPECT_EQ(server->channels_owned_by(0), 2);
  server->Start();
  bool closed_mid_visit = false;
  int owned_mid_visit = -1;
  uint64_t closed_count_mid_visit = 99;
  // Fire-and-forget request: no client actor touches the channel once the
  // WRITE completed, which CloseChannel's contract requires.
  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    RpcClient client(channel);
    (void)co_await client.SubmitCall(kSlow, AsBytes("slow"));
  }(doomed));
  // The kSlow handler runs for 20 us of process time; close 10 us into it.
  engine_.ScheduleAt(sim::Micros(12), [&] {
    closed_mid_visit = server->CloseChannel(doomed);
    owned_mid_visit = server->channels_owned_by(0);
    closed_count_mid_visit = server->channels_closed();
  });
  uint64_t keep_calls = 0;
  engine_.Spawn([](Channel* channel, uint64_t* calls) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> out(1024);
    co_await client.Call(kEcho, AsBytes("after"), out);
    *calls = client.calls();
  }(keep, &keep_calls));
  engine_.RunUntil(sim::Millis(1));
  server->Stop();
  EXPECT_TRUE(closed_mid_visit);
  EXPECT_EQ(owned_mid_visit, 2);  // deferred: the visit still holds it
  EXPECT_EQ(closed_count_mid_visit, 0u);
  EXPECT_EQ(server->channels_closed(), 1u);
  EXPECT_EQ(server->channels_owned_by(0), 1);
  EXPECT_EQ(server->requests_served(), 2u);
  EXPECT_EQ(keep_calls, 1u);
  EXPECT_FALSE(server->CloseChannel(doomed));  // already gone
  EXPECT_TRUE(server->CloseChannel(keep));
  EXPECT_EQ(server->channels_owned_by(0), 0);
  EXPECT_EQ(mem::Pool::Shared(*server_node_)->in_use_bytes(), server_bytes);
  EXPECT_EQ(mem::Pool::Shared(client_node)->in_use_bytes(), client_bytes);
}

TEST_F(RpcTest, ChannelsAcceptedMidRunAreServed) {
  RpcServer* server = MakeServer(1);
  rdma::Node& first_node = fabric_.AddNode("client0");
  Channel* first = server->AcceptChannel(first_node, RfpOptions{}, 0);
  server->Start();

  int first_done = 0;
  int late_done = 0;
  engine_.Spawn([](Channel* channel, int* done) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(1024);
    for (int i = 0; i < 50; ++i) {
      co_await client.Call(kEcho, AsBytes("early"), resp);
    }
    ++*done;
  }(first, &first_done));

  // A second client joins while the serve loop is live (exercises the
  // suspension-safe channel iteration).
  rdma::Node& late_node = fabric_.AddNode("client1");
  engine_.ScheduleAt(sim::Micros(50), [&] {
    Channel* late = server->AcceptChannel(late_node, RfpOptions{}, 0);
    engine_.Spawn([](Channel* channel, int* done) -> sim::Task<void> {
      RpcClient client(channel);
      std::vector<std::byte> resp(1024);
      for (int i = 0; i < 50; ++i) {
        size_t n = co_await client.Call(kEcho, AsBytes("late"), resp);
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(resp.data()), n), "late");
      }
      ++*done;
    }(late, &late_done));
  });

  engine_.RunUntil(sim::Millis(10));
  server->Stop();
  EXPECT_EQ(first_done, 1);
  EXPECT_EQ(late_done, 1);
}

}  // namespace
}  // namespace rfp
