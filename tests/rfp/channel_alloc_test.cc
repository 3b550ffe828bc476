// Heap allocations and coroutine frames on the RFP call path. This binary
// replaces the global operator new to count every allocation, so it pins
// that a warmed echo call allocates nothing, at window 1 and on a
// multicore, window-64 server with doorbell batches and coalesced fetches:
// every RDMA op's stations run on the op's own frame, its payload snapshot
// comes from a pooled buffer and every queue on the path is a ring at its
// working depth. It also pins the frames such calls draw from
// sim::internal::FramePool, so a station that turns back into a frame of
// its own fails here. Before, a window-1 call allocated once per RDMA op
// and the windowed calls 6129 times.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/frame_pool.h"
#include "src/sim/task.h"

namespace {
size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*bytes*/) noexcept { std::free(p); }

namespace rfp {
namespace {

using sim::internal::FramePool;

constexpr uint16_t kEcho = 1;
constexpr size_t kEchoBytes = 32;

// What a stretch of simulated calls cost the host.
struct Cost {
  size_t allocations = 0;
  uint64_t frames = 0;
  uint64_t rdma_ops = 0;  // request WRITEs and fetch READs
};

uint64_t RdmaOps(const std::vector<Channel*>& channels) {
  uint64_t ops = 0;
  for (const Channel* c : channels) {
    ops += c->stats().request_writes + c->stats().fetch_reads;
  }
  return ops;
}

uint64_t Calls(const std::vector<Channel*>& channels) {
  uint64_t calls = 0;
  for (const Channel* c : channels) {
    calls += c->stats().calls;
  }
  return calls;
}

sim::Task<void> CallLoop(RpcClient* client, int calls) {
  std::byte request[kEchoBytes] = {};
  std::byte response[2 * kEchoBytes];
  for (int i = 0; i < calls; ++i) {
    co_await client->Call(kEcho, request, response);
  }
}

// echo_pipelined's driver shape: submit a window of 8-byte calls (one
// doorbell batch), then await them all. `handles` sizes the window.
sim::Task<void> WindowLoop(RpcClient* client, int windows,
                           std::vector<Channel::CallHandle>* handles) {
  std::byte request[sizeof(uint64_t)] = {};
  std::byte response[kEchoBytes];
  for (int w = 0; w < windows; ++w) {
    for (Channel::CallHandle& handle : *handles) {
      handle = co_await client->SubmitCall(kEcho, request);
    }
    for (Channel::CallHandle& handle : *handles) {
      co_await client->AwaitCall(handle, response);
    }
  }
}

// An echo server on its own node and `clients` client stubs, each on one of
// `client_nodes` nodes, every channel forced to fetch.
class EchoRig {
 public:
  EchoRig(int workers, bool multicore, int client_nodes, int clients, int window)
      : fabric_(engine_) {
    rdma::Node& server_node = fabric_.AddNode("server");
    std::vector<rdma::Node*> nodes;
    for (int n = 0; n < client_nodes; ++n) {
      nodes.push_back(&fabric_.AddNode("client" + std::to_string(n)));
    }
    ServerOptions server_options;
    server_options.multicore = multicore;
    server_ = std::make_unique<RpcServer>(fabric_, server_node, workers, server_options);
    server_->RegisterHandler(kEcho, [](const HandlerContext&, std::span<const std::byte> req,
                                       std::span<std::byte> resp) {
      std::memcpy(resp.data(), req.data(), req.size());
      return HandlerResult{req.size(), sim::Nanos(150)};
    });
    RfpOptions options;
    options.force_mode = RfpOptions::ForceMode::kForceFetch;
    if (window > 1) {
      options.window = window;
      options.coalesced_fetch = true;
      options.max_message_bytes = kEchoBytes;
    }
    for (int c = 0; c < clients; ++c) {
      Channel* channel = server_->AcceptChannel(*nodes[static_cast<size_t>(c % client_nodes)],
                                                options, c % workers);
      channels_.push_back(channel);
      clients_.push_back(std::make_unique<RpcClient>(channel));
    }
    server_->Start();
  }

  ~EchoRig() { server_->Stop(); }

  const std::vector<Channel*>& channels() const { return channels_; }

  // Runs `loop(stub, index)` on every client stub for 20 ms of virtual time
  // and returns what it cost.
  template <typename Loop>
  Cost Run(Loop loop) {
    const size_t allocations = g_allocations;
    const uint64_t frames = FramePool::drawn();
    const uint64_t ops = RdmaOps(channels_);
    for (size_t i = 0; i < clients_.size(); ++i) {
      engine_.Spawn(loop(clients_[i].get(), i));
    }
    engine_.RunUntil(engine_.now() + sim::Millis(20));
    return Cost{g_allocations - allocations, FramePool::drawn() - frames,
                RdmaOps(channels_) - ops};
  }

 private:
  sim::Engine engine_;
  rdma::Fabric fabric_;
  std::unique_ptr<RpcServer> server_;
  std::vector<Channel*> channels_;
  std::vector<std::unique_ptr<RpcClient>> clients_;
};

// The invariant checker (RFP_CHECK) books every op on the heap by design;
// these tests count the data path alone.
class ChannelCostTest : public ::testing::Test {
 protected:
  check::ScopedMode no_checker_{check::Mode::kOff};
};

using ChannelAllocTest = ChannelCostTest;
using ChannelFrameTest = ChannelCostTest;

constexpr int kWarmCalls = 2000;
constexpr int kCalls = 1000;
constexpr int kWindow = 64;
constexpr int kWarmWindows = 40;
constexpr int kWindows = 10;
constexpr int kWindowClients = 8;

// Each windowed client's call handles, allocated before anything is counted.
using Handles = std::vector<std::vector<Channel::CallHandle>>;

TEST_F(ChannelAllocTest, WarmWindowOneCallAllocatesNothing) {
  if (!sim::internal::kFramePoolEnabled) {
    GTEST_SKIP() << "coroutine frames and payloads are real allocations under ASan";
  }
  EchoRig rig(1, false, 1, 1, 1);
  // Warm every pool and queue.
  rig.Run([](RpcClient* c, size_t) { return CallLoop(c, kWarmCalls); });
  ASSERT_EQ(Calls(rig.channels()), static_cast<uint64_t>(kWarmCalls));

  const Cost cost = rig.Run([](RpcClient* c, size_t) { return CallLoop(c, kCalls); });
  ASSERT_EQ(Calls(rig.channels()), static_cast<uint64_t>(kWarmCalls + kCalls));
  EXPECT_GE(cost.rdma_ops, 2u * kCalls);
  EXPECT_EQ(cost.allocations, 0u);
}

TEST_F(ChannelAllocTest, WarmWindowedMulticoreCallsAllocateNothing) {
  if (!sim::internal::kFramePoolEnabled) {
    GTEST_SKIP() << "coroutine frames and payloads are real allocations under ASan";
  }
  EchoRig rig(4, true, 2, kWindowClients, kWindow);
  Handles handles(kWindowClients, std::vector<Channel::CallHandle>(kWindow));
  rig.Run([&](RpcClient* c, size_t i) { return WindowLoop(c, kWarmWindows, &handles[i]); });
  ASSERT_EQ(Calls(rig.channels()), uint64_t{kWarmWindows} * kWindow * kWindowClients);
  uint64_t batches = 0;
  uint64_t coalesced = 0;
  for (const Channel* c : rig.channels()) {
    batches += c->stats().doorbell_batches;
    coalesced += c->stats().coalesced_fetches;
  }
  ASSERT_GT(batches, 0u);
  ASSERT_GT(coalesced, 0u);

  const Cost cost =
      rig.Run([&](RpcClient* c, size_t i) { return WindowLoop(c, kWindows, &handles[i]); });
  ASSERT_EQ(Calls(rig.channels()),
            uint64_t{kWarmWindows + kWindows} * kWindow * kWindowClients);
  EXPECT_GT(cost.rdma_ops, 0u);
  EXPECT_EQ(cost.allocations, 0u);
}

// Frames drawn from FramePool, pinned: what is left is the channel's and the
// server's own coroutines (the call, its slot wait, the sweep's reply
// publication) and one Spawn wrapper plus op frame per posted RDMA op. The
// stations, the completion-order gate, contended grants and sync handlers
// draw none. Before they ran on the op's frame, a window-1 call drew 27142
// frames per 1000 calls (27.1 per call) here.
TEST_F(ChannelFrameTest, FramesPerWarmWindowOneCall) {
  EchoRig rig(1, false, 1, 1, 1);
  rig.Run([](RpcClient* c, size_t) { return CallLoop(c, kWarmCalls); });
  const Cost cost = rig.Run([](RpcClient* c, size_t) { return CallLoop(c, kCalls); });
  EXPECT_EQ(cost.frames, 15058u) << "per call: " << static_cast<double>(cost.frames) / kCalls;
}

// The same over the windowed calls' 5230 RDMA ops, which drew 90535 frames
// (17.3 per op) before.
TEST_F(ChannelFrameTest, FramesPerWarmWindowedOp) {
  EchoRig rig(4, true, 2, kWindowClients, kWindow);
  Handles handles(kWindowClients, std::vector<Channel::CallHandle>(kWindow));
  rig.Run([&](RpcClient* c, size_t i) { return WindowLoop(c, kWarmWindows, &handles[i]); });
  const Cost cost =
      rig.Run([&](RpcClient* c, size_t i) { return WindowLoop(c, kWindows, &handles[i]); });
  EXPECT_EQ(cost.rdma_ops, 5230u);
  EXPECT_EQ(cost.frames, 53925u)
      << "per op: " << static_cast<double>(cost.frames) / static_cast<double>(cost.rdma_ops);
}

}  // namespace
}  // namespace rfp
