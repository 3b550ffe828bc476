// Heap allocations on the RFP call path. This binary replaces the global
// operator new to count every allocation, so it pins what a warmed
// window-1 echo call allocates: only the QueuePair payload snapshot of each
// RDMA op (a request WRITE or a result READ), nothing per batch.

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
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

constexpr uint16_t kEcho = 1;

sim::Task<void> CallLoop(RpcClient* client, int calls, std::span<const std::byte> request,
                         std::span<std::byte> response) {
  for (int i = 0; i < calls; ++i) {
    co_await client->Call(kEcho, request, response);
  }
}

TEST(ChannelAllocTest, WarmWindowOneCallAllocatesOnlyPayloadSnapshots) {
  if (!sim::internal::kFramePoolEnabled) {
    GTEST_SKIP() << "coroutine frames are real allocations under ASan";
  }
  // The invariant checker (RFP_CHECK) books every op on the heap by design;
  // this test counts the data path alone.
  const check::ScopedMode no_checker(check::Mode::kOff);
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  RpcServer server(fabric, server_node, 1);
  server.RegisterHandler(kEcho, [](const HandlerContext&, std::span<const std::byte> req,
                                   std::span<std::byte> resp) {
    std::memcpy(resp.data(), req.data(), req.size());
    return HandlerResult{req.size(), sim::Nanos(300)};
  });
  RfpOptions options;
  options.force_mode = RfpOptions::ForceMode::kForceFetch;
  Channel* channel = server.AcceptChannel(client_node, options, 0);
  RpcClient client(channel);
  server.Start();

  const std::vector<std::byte> request(32, std::byte{7});
  std::vector<std::byte> response(64);
  engine.Spawn(CallLoop(&client, 2000, request, response));  // warm every pool and queue
  engine.RunUntil(engine.now() + sim::Millis(20));
  const Channel::Stats warm = channel->stats();
  ASSERT_EQ(warm.calls, 2000u);

  constexpr int kCalls = 1000;
  const size_t before = g_allocations;
  engine.Spawn(CallLoop(&client, kCalls, request, response));
  engine.RunUntil(engine.now() + sim::Millis(20));
  const size_t allocations = g_allocations - before;
  const Channel::Stats& now = channel->stats();
  ASSERT_EQ(now.calls, warm.calls + kCalls);
  const uint64_t rdma_ops =
      (now.request_writes - warm.request_writes) + (now.fetch_reads - warm.fetch_reads);
  EXPECT_GE(rdma_ops, 2u * kCalls);
  EXPECT_EQ(allocations, rdma_ops);
  server.Stop();
}

}  // namespace
}  // namespace rfp
