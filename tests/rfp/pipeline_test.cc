// Pipelined multi-slot channel tests (docs/pipelining.md): slot-ring round
// trips, doorbell-batching stats, the window=1 degeneracy of the async
// surface (SubmitCall/AwaitCall must be schedule-identical to
// ClientSend/ClientRecv), per-call CallOptions knobs, window-full and
// stale-handle errors, the one-call ClientSend/ClientRecv surface riding
// slot 0 of a windowed channel, concurrent awaiters sharing one channel's completion queue, and
// the pipelined Jakiro MultiGet.

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace rfp {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// Polls the channel and echoes until `count` requests are served. Works for
// any window: TryServerRecv hands out one ready slot per call and ServerSend
// answers the slot it came from.
sim::Task<void> EchoServer(sim::Engine& eng, Channel* ch, int count) {
  std::vector<std::byte> buf(16384);
  int served = 0;
  while (served < count) {
    if (ch->NeedsReplyResend()) {
      co_await ch->MaybeResendAfterSwitch();
    }
    size_t n = 0;
    if (ch->TryServerRecv(buf, &n)) {
      co_await eng.Sleep(sim::Nanos(300));
      co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
      ++served;
    } else {
      co_await eng.Sleep(sim::Nanos(200));
    }
  }
}

class PipelineTest : public ::testing::Test {
 protected:
  Channel* MakeChannel(const RfpOptions& options) {
    channels_.push_back(
        std::make_unique<Channel>(fabric_, *client_node_, *server_node_, options));
    return channels_.back().get();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  std::vector<std::unique_ptr<Channel>> channels_;
};

TEST_F(PipelineTest, Window4EchoInOrder) {
  RfpOptions options;
  options.window = 4;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 4));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await c->SubmitCall(AsBytes("slot-" + std::to_string(i))));
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await c->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "slot-" + std::to_string(i));
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 4u);
  // The four staged requests went out in one doorbell batch.
  EXPECT_GE(ch->stats().doorbell_batches, 1u);
  EXPECT_GT(ch->stats().batch_occupancy.mean(), 1.0);
  EXPECT_EQ(ch->stats().submit_window.count(), 4u);
}

TEST_F(PipelineTest, Window4AwaitOutOfOrder) {
  RfpOptions options;
  options.window = 4;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 4));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await c->SubmitCall(AsBytes("ooo-" + std::to_string(i))));
    }
    std::vector<std::byte> out(16384);
    for (int i = 3; i >= 0; --i) {  // awaits need not match submit order
      const size_t got = co_await c->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "ooo-" + std::to_string(i));
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 4u);
}

TEST_F(PipelineTest, SlotsAreReusedAcrossGenerations) {
  RfpOptions options;
  options.window = 2;
  Channel* ch = MakeChannel(options);
  static constexpr int kRounds = 8;
  engine_.Spawn(EchoServer(engine_, ch, kRounds * 2));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int r = 0; r < kRounds; ++r) {
      const Channel::CallHandle a =
          co_await c->SubmitCall(AsBytes("a" + std::to_string(r)));
      const Channel::CallHandle b =
          co_await c->SubmitCall(AsBytes("b" + std::to_string(r)));
      size_t got = co_await c->AwaitCall(a, out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "a" + std::to_string(r));
      got = co_await c->AwaitCall(b, out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "b" + std::to_string(r));
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, static_cast<uint64_t>(kRounds * 2));
  // retries_per_call records one sample per issued call: Table-3 semantics
  // (RoundTripsPerCall divides by stats.calls) survive pipelining.
  EXPECT_EQ(ch->stats().retries_per_call.count(), static_cast<uint64_t>(kRounds * 2));
}

// The async surface on a default (window=1) channel is the legacy path:
// same virtual-time schedule, same wire counters.
TEST_F(PipelineTest, Window1SubmitAwaitMatchesClientSendRecv) {
  struct Result {
    sim::Time end = 0;
    uint64_t calls = 0;
    uint64_t request_writes = 0;
    uint64_t fetch_reads = 0;
  };
  auto run = [](bool async_surface) {
    sim::Engine engine;
    rdma::Fabric fabric(engine);
    rdma::Node& client = fabric.AddNode("client");
    rdma::Node& server = fabric.AddNode("server");
    Channel ch(fabric, client, server, RfpOptions{});
    engine.Spawn(EchoServer(engine, &ch, 6));
    engine.Spawn([](Channel* c, bool async) -> sim::Task<void> {
      std::vector<std::byte> out(16384);
      for (int i = 0; i < 6; ++i) {
        const std::string msg = "same-" + std::to_string(i);
        if (async) {
          const Channel::CallHandle h = co_await c->SubmitCall(AsBytes(msg));
          const size_t got = co_await c->AwaitCall(h, out);
          EXPECT_EQ(got, msg.size());
        } else {
          co_await c->ClientSend(AsBytes(msg));
          const size_t got = co_await c->ClientRecv(out);
          EXPECT_EQ(got, msg.size());
        }
      }
    }(&ch, async_surface));
    engine.Run();
    return Result{engine.now(), ch.stats().calls, ch.stats().request_writes,
                  ch.stats().fetch_reads};
  };
  const Result legacy = run(false);
  const Result async = run(true);
  EXPECT_EQ(async.end, legacy.end);  // bit-for-bit: same event schedule
  EXPECT_EQ(async.calls, legacy.calls);
  EXPECT_EQ(async.request_writes, legacy.request_writes);
  EXPECT_EQ(async.fetch_reads, legacy.fetch_reads);
}

TEST_F(PipelineTest, PerCallFetchSizeOverrideSkipsRemainderFetch) {
  RfpOptions options;
  options.window = 4;
  options.fetch_size = 64;  // deliberately smaller than the echoed payload
  Channel* ch = MakeChannel(options);
  const std::string big(1000, 'z');
  engine_.Spawn(EchoServer(engine_, ch, 2));
  engine_.Spawn([](Channel* c, const std::string* msg) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    // Default fetch size undershoots: the payload needs a remainder fetch.
    Channel::CallHandle h = co_await c->SubmitCall(AsBytes(*msg));
    (void)co_await c->AwaitCall(h, out);
    EXPECT_EQ(c->stats().extra_fetches, 1u);
    // The per-call override covers header + payload in the first READ.
    CallOptions opts;
    opts.fetch_size = 4096;
    h = co_await c->SubmitCall(AsBytes(*msg), opts);
    (void)co_await c->AwaitCall(h, out);
    EXPECT_EQ(c->stats().extra_fetches, 1u);  // unchanged
  }(ch, &big));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 2u);
}

TEST_F(PipelineTest, SubmitBeyondWindowThrows) {
  RfpOptions options;
  options.window = 2;
  Channel* ch = MakeChannel(options);
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    (void)co_await c->SubmitCall(AsBytes("one"));
    (void)co_await c->SubmitCall(AsBytes("two"));
    bool threw = false;
    try {
      (void)co_await c->SubmitCall(AsBytes("three"));
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(ch));
  engine_.Run();
}

TEST_F(PipelineTest, StaleHandleThrows) {
  RfpOptions options;
  options.window = 2;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 1));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    const Channel::CallHandle h = co_await c->SubmitCall(AsBytes("once"));
    std::vector<std::byte> out(16384);
    (void)co_await c->AwaitCall(h, out);
    bool threw = false;
    try {
      (void)co_await c->AwaitCall(h, out);  // slot already freed
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(ch));
  engine_.Run();
}

// The legacy one-call endpoint surface, Table 2's client_send/client_recv,
// is ClientSend/ClientRecv, which on a windowed channel submits into slot 0
// and awaits it: one-call-at-a-time code keeps working on a pipelined
// channel.
TEST_F(PipelineTest, LegacyEndpointRidesSlotZeroOfWindowedChannel) {
  RfpOptions options;
  options.window = 4;
  Channel* ch = MakeChannel(options);
  engine_.Spawn(EchoServer(engine_, ch, 3));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<std::byte> buf(4096);
    for (int i = 0; i < 3; ++i) {
      const std::string msg = "legacy-" + std::to_string(i);
      std::memcpy(buf.data(), msg.data(), msg.size());
      co_await c->ClientSend(std::span<const std::byte>(buf.data(), msg.size()));
      const size_t got = co_await c->ClientRecv(buf);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(buf.data()), got), msg);
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, 3u);
  // Slot-0 sequential calls never stage more than one request, so every
  // doorbell rings for a single WR: nothing ever rides a leader's doorbell.
  EXPECT_EQ(ch->stats().batched_ops, 0u);
  EXPECT_EQ(ch->stats().batch_occupancy.max(), 1);
}

// ---- RpcClient surface --------------------------------------------------------

class PipelineRpcTest : public ::testing::Test {
 protected:
  void StartEcho(const RfpOptions& channel_options) {
    server_ = std::make_unique<RpcServer>(fabric_, *server_node_, 1);
    server_->RegisterHandler(
        7, [](const HandlerContext&, std::span<const std::byte> req,
              std::span<std::byte> resp) -> HandlerResult {
          std::memcpy(resp.data(), req.data(), req.size());
          return HandlerResult{req.size(), sim::Nanos(300)};
        });
    channel_ = server_->AcceptChannel(*client_node_, channel_options, 0);
    client_ = std::make_unique<RpcClient>(channel_);
    server_->Start();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  std::unique_ptr<RpcServer> server_;
  Channel* channel_ = nullptr;
  std::unique_ptr<RpcClient> client_;
};

TEST_F(PipelineRpcTest, SubmitAwaitPipelinesThroughTheStub) {
  RfpOptions options;
  options.window = 4;
  StartEcho(options);
  engine_.Spawn([](RpcServer* srv, RpcClient* cl) -> sim::Task<void> {
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      const std::string msg = "rpc-" + std::to_string(i);
      handles.push_back(co_await cl->SubmitCall(7, AsBytes(msg)));
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await cl->AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "rpc-" + std::to_string(i));
    }
    srv->Stop();
  }(server_.get(), client_.get()));
  engine_.Run();
  EXPECT_EQ(client_->calls(), 4u);
  EXPECT_EQ(client_->latency().count(), 4u);  // per-slot submit->await latency
  EXPECT_GE(channel_->stats().doorbell_batches, 1u);
}

TEST_F(PipelineRpcTest, CallOptionsCarryTheDeadline) {
  RfpOptions options;
  StartEcho(options);
  engine_.Spawn([](sim::Engine& eng, RpcServer* srv, RpcClient* cl) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    CallOptions opts;
    opts.deadline_ns = eng.now() + sim::Millis(5);  // generous: must not fire
    const size_t got = co_await cl->Call(7, AsBytes("deadline"), out, opts);
    EXPECT_EQ(got, 8u);
    srv->Stop();
  }(engine_, server_.get(), client_.get()));
  engine_.Run();
  EXPECT_EQ(client_->calls(), 1u);
}

// The positional-deadline overload is gone (deprecated in the pipelining PR,
// removed once the last caller migrated); designated-initializer CallOptions
// is the single way to pass a deadline and behaves identically.
TEST_F(PipelineRpcTest, CallOptionsDesignatedInitializerReplacesOldOverload) {
  RfpOptions options;
  StartEcho(options);
  engine_.Spawn([](sim::Engine& eng, RpcServer* srv, RpcClient* cl) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    const size_t got = co_await cl->Call(7, AsBytes("old-style"), out,
                                         CallOptions{.deadline_ns = eng.now() + sim::Millis(5)});
    EXPECT_EQ(got, 9u);
    srv->Stop();
  }(engine_, server_.get(), client_.get()));
  engine_.Run();
  EXPECT_EQ(client_->calls(), 1u);
}

// ---- Pipelined Jakiro ---------------------------------------------------------

// Two actors awaiting calls on one windowed channel run their fetch sweeps
// concurrently, posting on one QP and waiting on its one send CQ. Each
// batch must consume exactly its own completions: wr_ids are unique per
// channel, and a completion one batch pops for the other is handed over.
// With reused wr_ids 0..n-1 the checker saw completions "overtake" their
// post order, and a batch could finish on the other's completion.
TEST(PipelineConcurrencyTest, ConcurrentAwaitersOnOneChannelKeepTheirCompletions) {
  check::ScopedMode mode(check::Mode::kReport);
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client = fabric.AddNode("client");
  rdma::Node& server = fabric.AddNode("server");
  RfpOptions options;
  options.window = 4;
  options.force_mode = RfpOptions::ForceMode::kForceFetch;
  Channel ch(fabric, client, server, options);
  constexpr int kCallsPerActor = 25;
  engine.Spawn(EchoServer(engine, &ch, 2 * kCallsPerActor));
  int matched = 0;
  for (int actor = 0; actor < 2; ++actor) {
    engine.Spawn([](Channel* c, int id, int* ok) -> sim::Task<void> {
      std::vector<std::byte> out(16384);
      for (int i = 0; i < kCallsPerActor; ++i) {
        const std::string tag = "actor" + std::to_string(id) + "-" + std::to_string(i);
        const Channel::CallHandle handle = co_await c->SubmitCall(AsBytes(tag));
        const size_t got = co_await c->AwaitCall(handle, out);
        if (std::string(reinterpret_cast<const char*>(out.data()), got) == tag) {
          ++*ok;
        }
      }
    }(&ch, actor, &matched));
  }
  engine.RunUntil(sim::Millis(5));
  EXPECT_EQ(matched, 2 * kCallsPerActor);
  EXPECT_GE(ch.stats().doorbell_batches, 2u * kCallsPerActor);
  ASSERT_NE(fabric.checker(), nullptr);
  EXPECT_EQ(fabric.checker()->total_violations(), 0u);
}

TEST(PipelineJakiroTest, PipelinedMultiGetMatchesSequential) {
  auto run = [](const kv::JakiroConfig& config, std::vector<std::optional<std::string>>* got) {
    sim::Engine engine;
    rdma::Fabric fabric(engine);
    rdma::Node& server_node = fabric.AddNode("server");
    rdma::Node& client_node = fabric.AddNode("client");
    kv::JakiroServer server(fabric, server_node, config);
    kv::JakiroClient client(server, client_node);
    server.Start();
    engine.Spawn([](sim::Engine& eng, kv::JakiroServer* srv, kv::JakiroClient* cl,
                    std::vector<std::optional<std::string>>* out) -> sim::Task<void> {
      // 12 keys across the partitions; key-9 is left absent.
      for (int i = 0; i < 12; ++i) {
        if (i == 9) {
          continue;
        }
        const std::string key = "key-" + std::to_string(i);
        const std::string value = "value-" + std::to_string(i * 7);
        EXPECT_TRUE(co_await cl->Put(AsBytes(key), AsBytes(value)));
      }
      std::vector<std::string> key_store;
      for (int i = 0; i < 12; ++i) {
        key_store.push_back("key-" + std::to_string(i));
      }
      std::vector<std::span<const std::byte>> keys;
      for (const std::string& k : key_store) {
        keys.push_back(AsBytes(k));
      }
      std::vector<std::byte> arena(1 << 16);
      std::vector<std::optional<std::span<const std::byte>>> values(keys.size());
      co_await cl->MultiGet(keys, arena, values);
      for (const auto& v : values) {
        if (v.has_value()) {
          out->emplace_back(std::string(reinterpret_cast<const char*>(v->data()), v->size()));
        } else {
          out->emplace_back(std::nullopt);
        }
      }
      srv->Stop();
      (void)eng;
    }(engine, &server, &client, got));
    engine.Run();
    return client.MergedChannelStats();
  };

  kv::JakiroConfig sequential;
  sequential.server_threads = 3;
  std::vector<std::optional<std::string>> seq_values;
  const Channel::Stats seq_stats = run(sequential, &seq_values);

  std::vector<std::optional<std::string>> pipe_values;
  const Channel::Stats pipe_stats =
      run(kv::JakiroConfig::Build(sequential).Pipelined(4), &pipe_values);

  ASSERT_EQ(pipe_values.size(), 12u);
  EXPECT_EQ(pipe_values, seq_values);  // identical results, different transport
  EXPECT_FALSE(pipe_values[9].has_value());
  EXPECT_EQ(pipe_values[0], std::optional<std::string>("value-0"));
  // The pipelined run split owners' batches across the window and batched
  // the submissions; the sequential run never formed a batch.
  EXPECT_EQ(seq_stats.doorbell_batches, 0u);
  EXPECT_GE(pipe_stats.calls, seq_stats.calls);  // chunking adds calls
}

}  // namespace
}  // namespace rfp
