#include "src/kv/pilaf_store.h"

#include <cstring>
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

class PilafTest : public ::testing::Test {
 protected:
  PilafServer* MakeServer(PilafConfig config = {}) {
    server_ = std::make_unique<PilafServer>(fabric_, *server_node_, config);
    return server_.get();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  std::unique_ptr<PilafServer> server_;
};

TEST_F(PilafTest, OneSidedGetFindsPreloadedData) {
  PilafServer* server = MakeServer();
  ASSERT_TRUE(server->Preload(Bytes("key"), Bytes("value")));
  PilafClient client(fabric_, *client_node_, *server, 0);
  server->Start();

  std::string got;
  engine_.Spawn([](PilafClient* c, std::string* out) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    auto size = co_await c->Get(Bytes("key"), value);
    EXPECT_TRUE(size.has_value());
    out->assign(reinterpret_cast<const char*>(value.data()), *size);
  }(&client, &got));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_EQ(got, "value");
  // GETs never touched the server CPU.
  EXPECT_EQ(server->rpc().requests_served(), 0u);
  EXPECT_GT(client.stats().slot_reads, 0u);
  EXPECT_EQ(client.stats().extent_reads, 1u);
}

TEST_F(PilafTest, MissingKeyNotFound) {
  PilafServer* server = MakeServer();
  PilafClient client(fabric_, *client_node_, *server, 0);
  server->Start();
  bool checked = false;
  engine_.Spawn([](PilafClient* c, bool* out) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    EXPECT_FALSE((co_await c->Get(Bytes("ghost"), value)).has_value());
    *out = true;
  }(&client, &checked));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_TRUE(checked);
  EXPECT_EQ(client.stats().not_found, 1u);
}

TEST_F(PilafTest, PutThroughRpcThenOneSidedGet) {
  PilafServer* server = MakeServer();
  PilafClient client(fabric_, *client_node_, *server, 0);
  server->Start();
  std::string got;
  engine_.Spawn([](PilafClient* c, std::string* out) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    EXPECT_TRUE(co_await c->Put(Bytes("k"), Bytes("written-via-rpc")));
    auto size = co_await c->Get(Bytes("k"), value);
    EXPECT_TRUE(size.has_value());
    out->assign(reinterpret_cast<const char*>(value.data()), *size);
  }(&client, &got));
  engine_.RunUntil(sim::Millis(5));
  server->Stop();
  EXPECT_EQ(got, "written-via-rpc");
  EXPECT_EQ(server->rpc().requests_served(), 1u);  // only the PUT
}

TEST_F(PilafTest, GetUsesAboutThreeReads) {
  // Paper Section 2.3: Pilaf averages ~3.2 READs per GET. With 3-way
  // probing (avg 2 slot probes) plus one extent read, expect ~2.5-3.5.
  PilafConfig config;
  config.num_slots = 1 << 14;
  PilafServer* server = MakeServer(config);
  for (int i = 0; i < 8000; ++i) {  // ~50% fill, plus collisions to probe past
    ASSERT_TRUE(server->Preload(Bytes("key" + std::to_string(i)), Bytes("v")));
  }
  PilafClient client(fabric_, *client_node_, *server, 0);
  server->Start();
  engine_.Spawn([](PilafClient* c) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    for (int i = 0; i < 500; ++i) {
      auto got = co_await c->Get(Bytes("key" + std::to_string(i)), value);
      EXPECT_TRUE(got.has_value());
    }
  }(&client));
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  const double reads_per_get = client.stats().ReadsPerGet();
  EXPECT_GT(reads_per_get, 2.0);
  EXPECT_LT(reads_per_get, 4.0);
}

TEST_F(PilafTest, ConcurrentPutsProduceCrcRetriesButNeverTornValues) {
  // One writer hammers a key with two alternating values while a reader
  // GETs it one-sidedly. The CRC must catch every torn read: the reader
  // only ever observes value A or value B in full.
  PilafServer* server = MakeServer();
  ASSERT_TRUE(server->Preload(Bytes("hot"), Bytes(std::string(64, 'A'))));
  PilafClient writer(fabric_, *client_node_, *server, 0);
  rdma::Node* reader_node = &fabric_.AddNode("reader");
  PilafClient reader(fabric_, *reader_node, *server, 1);
  server->Start();

  engine_.Spawn([](PilafClient* w) -> sim::Task<void> {
    for (int i = 0; i < 300; ++i) {
      co_await w->Put(Bytes("hot"), Bytes(std::string(64, i % 2 == 0 ? 'B' : 'A')));
    }
  }(&writer));

  int torn_values = 0;
  int reads_done = 0;
  engine_.Spawn([](PilafClient* r, int* torn, int* done) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    for (int i = 0; i < 2000; ++i) {
      auto size = co_await r->Get(Bytes("hot"), value);
      if (!size.has_value()) {
        continue;  // transiently invisible mid-update is acceptable
      }
      EXPECT_EQ(*size, 64u);
      const char first = static_cast<char>(value[0]);
      bool uniform = first == 'A' || first == 'B';
      for (size_t b = 1; b < *size && uniform; ++b) {
        uniform = static_cast<char>(value[b]) == first;
      }
      if (!uniform) {
        ++*torn;
      }
      ++*done;
    }
  }(&reader, &torn_values, &reads_done));

  engine_.RunUntil(sim::Millis(100));
  server->Stop();
  EXPECT_GT(reads_done, 1000);
  EXPECT_EQ(torn_values, 0) << "CRC64 must filter every torn read";
  EXPECT_GT(reader.stats().crc_failures, 0u)
      << "with a race window of 0.6 x kPilafPutProcessNs and a hammering writer, some reads "
         "must race";
}

TEST_F(PilafTest, ValueTooLargeForBufferThrows) {
  PilafServer* server = MakeServer();
  ASSERT_TRUE(server->Preload(Bytes("big"), Bytes(std::string(512, 'x'))));
  PilafClient client(fabric_, *client_node_, *server, 0);
  server->Start();
  engine_.Spawn([](PilafClient* c) -> sim::Task<void> {
    std::vector<std::byte> small(16);
    co_await c->Get(Bytes("big"), small);
  }(&client));
  EXPECT_THROW(engine_.RunUntil(sim::Millis(5)), std::length_error);
}

}  // namespace
}  // namespace kv
