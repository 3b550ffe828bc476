#include "src/kv/farm_store.h"

#include "src/kv/crc64.h"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
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

std::string Str(std::span<const std::byte> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

class FarmStoreTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node& node_{fabric_.AddNode("server")};
};

TEST_F(FarmStoreTest, PutGetRoundTrip) {
  FarmConfig config;
  config.num_buckets = 64;
  FarmStore store(node_, config);
  EXPECT_TRUE(store.Put(Bytes("key"), Bytes("value")));
  auto v = store.Get(Bytes("key"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(Str(*v), "value");
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(FarmStoreTest, EntriesStayWithinNeighborhood) {
  FarmConfig config;
  config.num_buckets = 256;  // x4 slots = 1024 capacity
  config.neighborhood = 8;
  FarmStore store(node_, config);
  sim::Rng rng(3);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 900; ++i) {  // ~88% fill: displacements will happen
    const std::string key = "key" + std::to_string(i);
    const std::string value = "v" + std::to_string(rng.Next() & 0xfff);
    if (store.Put(Bytes(key), Bytes(value))) {
      oracle[key] = value;
    }
  }
  EXPECT_GT(store.stats().displacements, 0u);
  // Every stored entry must be retrievable (i.e., within its neighborhood —
  // Get only scans the H home cells).
  for (const auto& [key, value] : oracle) {
    auto got = store.Get(Bytes(key));
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(Str(*got), value);
  }
}

TEST_F(FarmStoreTest, UpdateInPlace) {
  FarmConfig config;
  config.num_buckets = 16;
  FarmStore store(node_, config);
  store.Put(Bytes("k"), Bytes("old"));
  store.Put(Bytes("k"), Bytes("new!"));
  EXPECT_EQ(Str(*store.Get(Bytes("k"))), "new!");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().updates, 1u);
}

TEST_F(FarmStoreTest, EraseFreesTheCell) {
  FarmConfig config;
  config.num_buckets = 16;
  FarmStore store(node_, config);
  store.Put(Bytes("k"), Bytes("v"));
  EXPECT_TRUE(store.Erase(Bytes("k")));
  EXPECT_FALSE(store.Get(Bytes("k")).has_value());
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(FarmStoreTest, OversizeValueThrows) {
  FarmConfig config;
  config.num_buckets = 16;
  config.max_value_bytes = 16;
  FarmStore store(node_, config);
  EXPECT_THROW(store.Put(Bytes("k"), Bytes(std::string(17, 'x'))), std::invalid_argument);
}

TEST_F(FarmStoreTest, StagedCellIsTornUntilPublished) {
  FarmConfig config;
  config.num_buckets = 16;
  FarmStore store(node_, config);
  store.Put(Bytes("key"), Bytes("AAAA"));
  auto pending = store.StageCell(Bytes("key"), Bytes("BBBB"));
  ASSERT_TRUE(pending.has_value());
  // Old header + new bytes: the CRC must mismatch until publication.
  rdma::MemoryRegion* mr = fabric_.FindRemote(store.view().rkey);
  const auto cell_span =
      mr->bytes().subspan(pending->cell_index * store.cell_bytes(), store.cell_bytes());
  const FarmStore::DecodedCell old_header = FarmStore::DecodeCell(cell_span);
  const auto record = cell_span.subspan(FarmStore::kCellHeaderBytes,
                                        old_header.key_size + old_header.value_size);
  EXPECT_NE(Crc64(record), old_header.crc);
  store.PublishCell(*pending);
  EXPECT_EQ(Str(*store.Get(Bytes("key"))), "BBBB");
}

class FarmEndToEndTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
};

TEST_F(FarmEndToEndTest, OneSidedGetReadsExactlyOneNeighborhood) {
  FarmConfig config;
  config.num_buckets = 1024;
  FarmServer server(fabric_, *server_node_, config);
  ASSERT_TRUE(server.Preload(Bytes("hello"), Bytes("world")));
  FarmClient client(fabric_, *client_node_, server, 0);
  server.Start();

  std::string got;
  engine_.Spawn([](FarmClient* c, std::string* out) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    auto size = co_await c->Get(Bytes("hello"), value);
    EXPECT_TRUE(size.has_value());
    out->assign(reinterpret_cast<const char*>(value.data()), *size);
  }(&client, &got));
  engine_.RunUntil(sim::Millis(2));
  server.Stop();
  EXPECT_EQ(got, "world");
  EXPECT_EQ(client.stats().neighborhood_reads, 1u);
  // The single READ fetched H cells — N x (cell bytes) on the wire.
  EXPECT_EQ(client.stats().bytes_read,
            static_cast<uint64_t>(config.neighborhood) *
                static_cast<uint64_t>(config.slots_per_bucket) *
                (FarmStore::kCellHeaderBytes + kFarmMaxKeyBytes + config.max_value_bytes));
  EXPECT_GT(client.stats().WasteFactor(), 6.0);  // the paper's "N usually > 6"
}

TEST_F(FarmEndToEndTest, PutThenGetThroughTheFullStack) {
  FarmServer server(fabric_, *server_node_, FarmConfig{});
  FarmClient client(fabric_, *client_node_, server, 0);
  server.Start();
  bool done = false;
  engine_.Spawn([](FarmClient* c, bool* out) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    EXPECT_TRUE(co_await c->Put(Bytes("k1"), Bytes("via-rpc")));
    auto size = co_await c->Get(Bytes("k1"), value);
    EXPECT_TRUE(size.has_value());
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(value.data()), *size), "via-rpc");
    EXPECT_FALSE((co_await c->Get(Bytes("missing"), value)).has_value());
    *out = true;
  }(&client, &done));
  engine_.RunUntil(sim::Millis(2));
  server.Stop();
  EXPECT_TRUE(done);
}

TEST_F(FarmEndToEndTest, ConcurrentWriterNeverYieldsTornValues) {
  FarmServer server(fabric_, *server_node_, FarmConfig{});
  ASSERT_TRUE(server.Preload(Bytes("hot"), Bytes(std::string(32, 'A'))));
  FarmClient writer(fabric_, *client_node_, server, 0);
  rdma::Node* reader_node = &fabric_.AddNode("reader");
  FarmClient reader(fabric_, *reader_node, server, 1);
  server.Start();

  engine_.Spawn([](FarmClient* w) -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      co_await w->Put(Bytes("hot"), Bytes(std::string(32, i % 2 == 0 ? 'B' : 'A')));
    }
  }(&writer));

  int torn = 0;
  engine_.Spawn([](FarmClient* r, int* bad) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    for (int i = 0; i < 1500; ++i) {
      auto size = co_await r->Get(Bytes("hot"), value);
      if (!size.has_value()) {
        continue;
      }
      const char first = static_cast<char>(value[0]);
      bool uniform = first == 'A' || first == 'B';
      for (size_t b = 1; b < *size && uniform; ++b) {
        uniform = static_cast<char>(value[b]) == first;
      }
      if (!uniform) {
        ++*bad;
      }
    }
  }(&reader, &torn));

  engine_.RunUntil(sim::Millis(60));
  server.Stop();
  EXPECT_EQ(torn, 0);
  EXPECT_GT(reader.stats().crc_failures, 0u);
}

}  // namespace
}  // namespace kv
