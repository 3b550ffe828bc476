// Host memory of idle channels: a channel's statistics hold no histogram
// buckets until they record a sample, and its rings stay on demand-zero
// pages until the protocol writes them, so bringing up Fig 10's peak
// (35 clients x 6 server threads) costs little resident memory. A recycled
// ring span must still start zeroed, or a stale header could alias a fresh
// call's (slot, seq).

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace rfp {
namespace {

constexpr size_t kMiB = size_t{1} << 20;
constexpr uint16_t kEcho = 1;

// Resident bytes of this process, from /proc/self/statm's second field.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

void RegisterEcho(RpcServer& server) {
  server.RegisterHandler(kEcho, [](const HandlerContext&, std::span<const std::byte> req,
                                   std::span<std::byte> resp) {
    std::memcpy(resp.data(), req.data(), req.size());
    return HandlerResult{req.size(), sim::Nanos(300)};
  });
}

sim::Task<void> CallOnce(RpcClient* client, std::vector<std::byte>* response) {
  const std::vector<std::byte> request(32, std::byte{7});
  co_await client->Call(kEcho, request, *response);
}

// Fig 10's peak point: 35 clients, each with a channel to every one of 6
// server threads, on 7 client nodes and one server node.
TEST(ChannelFootprintTest, BringingUpTwoHundredTenChannelsStaysSmall) {
  constexpr int kClients = 35;
  constexpr int kServerThreads = 6;
  constexpr int kClientNodes = 7;
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  std::vector<rdma::Node*> client_nodes;
  for (int n = 0; n < kClientNodes; ++n) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  RpcServer server(fabric, server_node, kServerThreads);
  RegisterEcho(server);

  const size_t before = ResidentBytes();
  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    for (int t = 0; t < kServerThreads; ++t) {
      Channel* channel = server.AcceptChannel(
          *client_nodes[static_cast<size_t>(c % kClientNodes)], RfpOptions{}, t);
      clients.push_back(std::make_unique<RpcClient>(channel));
    }
  }
  const size_t after = ResidentBytes();
  const size_t grown = after > before ? after - before : 0;
  ASSERT_EQ(clients.size(), 210u);
  EXPECT_LT(grown, 8 * kMiB) << "210 idle channels made " << grown / 1024 << " KiB resident";

  // Every channel still works: one call each.
  server.Start();
  std::vector<std::byte> response(64);
  for (const auto& client : clients) {
    engine.Spawn(CallOnce(client.get(), &response));
  }
  engine.RunUntil(engine.now() + sim::Millis(5));
  uint64_t calls = 0;
  for (const auto& client : clients) {
    calls += client->channel()->stats().calls;
  }
  EXPECT_EQ(calls, 210u);
  server.Stop();
}

// A channel's server ring is dirtied end to end, the channel is closed, and
// its successor draws the same span from the pool: every byte reads zero.
TEST(ChannelFootprintTest, RecycledRingSpanStartsZeroed) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  RpcServer server(fabric, server_node, 1);
  RegisterEcho(server);
  const RfpOptions options;
  const size_t ring_bytes = ChannelRingBytes(options);

  Channel* first = server.AcceptChannel(client_node, options, 0);
  const uint32_t rkey = first->server_rkey();
  const size_t offset = first->request_offset();
  rdma::MemoryRegion* mr = fabric.FindRemote(rdma::RemoteKey{rkey});
  ASSERT_NE(mr, nullptr);
  std::span<std::byte> ring = mr->bytes().subspan(offset, ring_bytes);
  std::fill(ring.begin(), ring.end(), std::byte{0xa5});
  ASSERT_TRUE(server.CloseChannel(first));

  Channel* second = server.AcceptChannel(client_node, options, 0);
  ASSERT_EQ(second->server_rkey(), rkey);
  ASSERT_EQ(second->request_offset(), offset) << "the pool did not recycle the span";
  EXPECT_TRUE(std::all_of(ring.begin(), ring.end(), [](std::byte b) { return b == std::byte{0}; }));

  // The recycled channel serves calls from a clean ring.
  RpcClient client(second);
  server.Start();
  std::vector<std::byte> response(64);
  engine.Spawn(CallOnce(&client, &response));
  engine.RunUntil(engine.now() + sim::Millis(1));
  EXPECT_EQ(second->stats().calls, 1u);
  EXPECT_EQ(response[0], std::byte{7});
  server.Stop();
}

}  // namespace
}  // namespace rfp
