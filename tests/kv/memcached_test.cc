#include "src/kv/memcached_store.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace kv {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

class MemcachedTest : public ::testing::Test {
 protected:
  MemcachedServer* MakeServer(MemcachedConfig config = {}) {
    server_ = std::make_unique<MemcachedServer>(fabric_, *server_node_, config);
    return server_.get();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  std::unique_ptr<MemcachedServer> server_;
};

TEST_F(MemcachedTest, PutGetRoundTrip) {
  MemcachedServer* server = MakeServer();
  MemcachedClient client(*server, *client_node_, 0);
  server->Start();
  std::string got;
  engine_.Spawn([](MemcachedClient* c, std::string* out) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    EXPECT_TRUE(co_await c->Put(Bytes("key"), Bytes("cached")));
    auto size = co_await c->Get(Bytes("key"), value);
    EXPECT_TRUE(size.has_value());
    out->assign(reinterpret_cast<const char*>(value.data()), *size);
  }(&client, &got));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_EQ(got, "cached");
  EXPECT_EQ(server->stats().hits, 1u);
}

TEST_F(MemcachedTest, MissReported) {
  MemcachedServer* server = MakeServer();
  MemcachedClient client(*server, *client_node_, 0);
  server->Start();
  bool checked = false;
  engine_.Spawn([](MemcachedClient* c, bool* out) -> sim::Task<void> {
    std::vector<std::byte> value(64);
    EXPECT_FALSE((co_await c->Get(Bytes("ghost"), value)).has_value());
    *out = true;
  }(&client, &checked));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_TRUE(checked);
  EXPECT_EQ(server->stats().misses, 1u);
}

TEST_F(MemcachedTest, GlobalLruEvictsOldest) {
  MemcachedConfig config;
  config.capacity_items = 3;
  MemcachedServer* server = MakeServer(config);
  server->Preload(Bytes("a"), Bytes("1"));
  server->Preload(Bytes("b"), Bytes("2"));
  server->Preload(Bytes("c"), Bytes("3"));
  MemcachedClient client(*server, *client_node_, 0);
  server->Start();
  engine_.Spawn([](MemcachedClient* c) -> sim::Task<void> {
    std::vector<std::byte> value(64);
    // Touch "a" so "b" is the global LRU victim.
    EXPECT_TRUE((co_await c->Get(Bytes("a"), value)).has_value());
    EXPECT_TRUE(co_await c->Put(Bytes("d"), Bytes("4")));
    EXPECT_FALSE((co_await c->Get(Bytes("b"), value)).has_value());
    EXPECT_TRUE((co_await c->Get(Bytes("a"), value)).has_value());
    EXPECT_TRUE((co_await c->Get(Bytes("d"), value)).has_value());
  }(&client));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_EQ(server->stats().evictions, 1u);
  EXPECT_EQ(server->size(), 3u);
}

TEST_F(MemcachedTest, RepeatedKeyHitsHotSet) {
  MemcachedServer* server = MakeServer();
  server->Preload(Bytes("hot"), Bytes("v"));
  MemcachedClient client(*server, *client_node_, 0);
  server->Start();
  engine_.Spawn([](MemcachedClient* c) -> sim::Task<void> {
    std::vector<std::byte> value(64);
    for (int i = 0; i < 20; ++i) {
      co_await c->Get(Bytes("hot"), value);
    }
  }(&client));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  // First access installs the key; the remaining 19 hit the hot set.
  EXPECT_EQ(server->stats().hot_hits, 19u);
}

TEST_F(MemcachedTest, HotKeysAreServedFaster) {
  // CPU-cache locality model: repeated access to one key must have lower
  // latency than scattered access (drives the paper's Fig 19 behaviour).
  // Every scattered key below is read once, so it is never in the hot set
  // (kMemcachedHotSetSize keys) when it is read.
  MemcachedServer* server = MakeServer();
  for (int i = 0; i < 200; ++i) {
    server->Preload(Bytes("key" + std::to_string(i)), Bytes("v"));
  }
  MemcachedClient hot_client(*server, *client_node_, 0);
  server->Start();

  sim::Time hot_elapsed = 0;
  sim::Time cold_elapsed = 0;
  engine_.Spawn([](sim::Engine& eng, MemcachedClient* c, sim::Time* hot,
                   sim::Time* cold) -> sim::Task<void> {
    std::vector<std::byte> value(64);
    sim::Time start = eng.now();
    for (int i = 0; i < 50; ++i) {
      co_await c->Get(Bytes("key0"), value);  // always the same key
    }
    *hot = eng.now() - start;
    start = eng.now();
    for (int i = 0; i < 50; ++i) {
      co_await c->Get(Bytes("key" + std::to_string(i * 4 + 1)), value);  // scattered
    }
    *cold = eng.now() - start;
  }(engine_, &hot_client, &hot_elapsed, &cold_elapsed));
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  EXPECT_LT(static_cast<double>(hot_elapsed), 0.75 * static_cast<double>(cold_elapsed));
}

TEST_F(MemcachedTest, SharedLockSerializesThreads) {
  // Every server thread takes the one cache lock: with 16 threads writing
  // cold keys, the lock holds (kMemcachedPutLockNs each) serialize, so the
  // run takes far longer than 16 independent partitions would.
  constexpr int kThreads = 16;
  constexpr int kClients = 2 * kThreads;
  constexpr int kPutsPerClient = 20;
  MemcachedConfig config;
  config.server_threads = kThreads;
  MemcachedServer* server = MakeServer(config);
  std::vector<std::unique_ptr<MemcachedClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    rdma::Node* node = &fabric_.AddNode("client" + std::to_string(c + 1));
    clients.push_back(std::make_unique<MemcachedClient>(*server, *node, c % kThreads));
  }
  server->Start();

  int done = 0;
  sim::Time finished = 0;
  for (int c = 0; c < kClients; ++c) {
    engine_.Spawn([](sim::Engine& eng, MemcachedClient* client, int id, int* count,
                     sim::Time* last) -> sim::Task<void> {
      for (int i = 0; i < kPutsPerClient; ++i) {
        // Distinct keys: no PUT gets the hot-set discount.
        co_await client->Put(Bytes("c" + std::to_string(id) + "k" + std::to_string(i)),
                             Bytes("1"));
      }
      ++*count;
      *last = eng.now();
    }(engine_, clients[static_cast<size_t>(c)].get(), c, &done, &finished));
  }
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  EXPECT_EQ(done, kClients);
  constexpr int64_t kPuts = int64_t{kClients} * kPutsPerClient;
  EXPECT_EQ(server->stats().puts, static_cast<uint64_t>(kPuts));
  // 640 puts x 2.5 us lock hold = 1.6 ms of serialized lock time minimum...
  EXPECT_GE(finished, kPuts * kMemcachedPutLockNs);
  // ...against ~0.66 ms of CPU per thread had each thread its own lock.
  EXPECT_GT(finished, 2 * kPuts * (kMemcachedPutCpuNs + kMemcachedPutLockNs) / kThreads);
}

// A PUT whose value the node's registration budget cannot hold answers
// kError instead of aborting the run. An item that outgrows its slab chunk
// at that point is dropped (its old chunk is already freed), never kept
// pointing at freed memory.
TEST(MemcachedBudgetTest, PutPastRegistrationBudgetFailsAndServerServesOn) {
  sim::Engine engine;
  rdma::FabricConfig config;
  config.nic.mem_max_registered_bytes = rdma::kMemArenaBytes;  // one arena
  rdma::Fabric fabric(engine, config);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  MemcachedConfig mc;
  mc.server_threads = 1;
  MemcachedServer server(fabric, server_node, mc);
  MemcachedClient client(server, client_node, 0);
  server.Start();

  struct Outcome {
    bool small_stored = false;
    int stored = 0;
    bool refused = false;
    bool outgrow_refused = false;
    bool small_dropped = false;
    bool big_value_intact = false;
  } outcome;
  engine.Spawn([](MemcachedClient* c, Outcome* out) -> sim::Task<void> {
    std::vector<std::byte> big(8192, std::byte{0x5a});
    std::vector<std::byte> got(16384);
    out->small_stored = co_await c->Put(Bytes("small"), Bytes("tiny"));
    // 8 KiB values: one 16 MiB arena holds fewer than 2048 of them.
    for (int i = 0; i < 4096 && !out->refused; ++i) {
      if (co_await c->Put(Bytes("big" + std::to_string(i)), big)) {
        ++out->stored;
      } else {
        out->refused = true;
      }
    }
    // The budget is still full: growing "small" to 8 KiB cannot be served.
    out->outgrow_refused = !co_await c->Put(Bytes("small"), big);
    out->small_dropped = !(co_await c->Get(Bytes("small"), got)).has_value();
    const std::optional<size_t> size = co_await c->Get(Bytes("big0"), got);
    out->big_value_intact = size.has_value() && *size == big.size() &&
                            std::equal(big.begin(), big.end(), got.begin());
  }(&client, &outcome));
  EXPECT_NO_THROW(engine.RunUntil(sim::Millis(200)));
  server.Stop();
  EXPECT_TRUE(outcome.small_stored);
  EXPECT_TRUE(outcome.refused);
  EXPECT_GT(outcome.stored, 1000);
  EXPECT_LT(outcome.stored, 2048);
  EXPECT_TRUE(outcome.outgrow_refused);
  EXPECT_TRUE(outcome.small_dropped);
  EXPECT_TRUE(outcome.big_value_intact);
  EXPECT_EQ(server.size(), static_cast<size_t>(outcome.stored));
}

}  // namespace
}  // namespace kv
