#include "src/kv/jakiro.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/explore/history.h"
#include "src/kv/common.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"
#include "src/workload/ycsb.h"

namespace kv {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

class JakiroTest : public ::testing::Test {
 protected:
  JakiroServer* MakeServer(JakiroConfig config = {}) {
    server_ = std::make_unique<JakiroServer>(fabric_, *server_node_, config);
    return server_.get();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  std::unique_ptr<JakiroServer> server_;
};

TEST_F(JakiroTest, PutGetDeleteRoundTrip) {
  JakiroServer* server = MakeServer();
  JakiroClient client(*server, *client_node_);
  server->Start();

  bool done = false;
  engine_.Spawn([](JakiroClient* c, bool* out) -> sim::Task<void> {
    std::vector<std::byte> value(8192);
    EXPECT_TRUE(co_await c->Put(Bytes("hello"), Bytes("world")));
    auto got = co_await c->Get(Bytes("hello"), value);
    EXPECT_TRUE(got.has_value());
    EXPECT_EQ(*got, 5u);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(value.data()), *got), "world");
    EXPECT_TRUE(co_await c->Delete(Bytes("hello")));
    EXPECT_FALSE((co_await c->Get(Bytes("hello"), value)).has_value());
    EXPECT_FALSE(co_await c->Delete(Bytes("hello")));
    *out = true;
  }(&client, &done));
  engine_.RunUntil(sim::Millis(10));
  server->Stop();
  EXPECT_TRUE(done);
}

TEST_F(JakiroTest, KeysRouteToOwnerPartitionsErew) {
  JakiroConfig config;
  config.server_threads = 4;
  JakiroServer* server = MakeServer(config);
  JakiroClient client(*server, *client_node_);
  server->Start();

  const int n = 200;
  engine_.Spawn([](JakiroClient* c, int count) -> sim::Task<void> {
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(co_await c->Put(Bytes("key" + std::to_string(i)), Bytes("v")));
    }
  }(&client, n));
  engine_.RunUntil(sim::Millis(50));
  server->Stop();

  // Every key lives exactly in its owner's partition and nowhere else.
  size_t total = 0;
  for (int t = 0; t < 4; ++t) {
    total += server->partition(t).size();
    EXPECT_GT(server->partition(t).size(), 0u) << "partition " << t << " unused";
  }
  EXPECT_EQ(total, static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto key = Bytes("key" + std::to_string(i));
    const int owner = server->OwnerThread(key);
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(server->partition(t).Get(key).has_value(), t == owner);
    }
  }
}

TEST_F(JakiroTest, WorkloadValuesVerifyEndToEnd) {
  JakiroServer* server = MakeServer();
  JakiroClient client(*server, *client_node_);
  server->Start();

  int verified = 0;
  engine_.Spawn([](JakiroClient* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> key(16);
    std::vector<std::byte> value(1024);
    std::vector<std::byte> got(8192);
    for (uint64_t id = 0; id < 50; ++id) {
      workload::MakeKey(id, key);
      workload::FillValue(id, std::span(value.data(), 100 + id));
      EXPECT_TRUE(co_await c->Put(key, std::span<const std::byte>(value.data(), 100 + id)));
    }
    for (uint64_t id = 0; id < 50; ++id) {
      workload::MakeKey(id, key);
      auto size = co_await c->Get(key, got);
      EXPECT_TRUE(size.has_value());
      if (size.has_value()) {
        EXPECT_EQ(*size, 100 + id);
        EXPECT_TRUE(workload::CheckValue(id, std::span<const std::byte>(got.data(), *size)));
        ++*out;
      }
    }
  }(&client, &verified));
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  EXPECT_EQ(verified, 50);
}

TEST_F(JakiroTest, ServerReplyVariantUsesOutboundPushes) {
  JakiroServer* server = MakeServer(JakiroConfig::Build().ServerReply());
  JakiroClient client(*server, *client_node_);
  server->Start();

  engine_.Spawn([](JakiroClient* c) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    for (int i = 0; i < 10; ++i) {
      co_await c->Put(Bytes("k" + std::to_string(i)), Bytes("v"));
      co_await c->Get(Bytes("k" + std::to_string(i)), value);
    }
  }(&client));
  engine_.RunUntil(sim::Millis(20));
  server->Stop();

  const auto stats = client.MergedChannelStats();
  EXPECT_EQ(stats.fetch_reads, 0u);
  EXPECT_EQ(stats.reply_pushes, 20u);
}

TEST_F(JakiroTest, RfpVariantFetchesInstead) {
  JakiroServer* server = MakeServer();
  JakiroClient client(*server, *client_node_);
  server->Start();

  engine_.Spawn([](JakiroClient* c) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    for (int i = 0; i < 10; ++i) {
      co_await c->Put(Bytes("k" + std::to_string(i)), Bytes("v"));
      co_await c->Get(Bytes("k" + std::to_string(i)), value);
    }
  }(&client));
  engine_.RunUntil(sim::Millis(20));
  server->Stop();

  const auto stats = client.MergedChannelStats();
  EXPECT_GE(stats.fetch_reads, 20u);
  EXPECT_EQ(stats.reply_pushes, 0u);
  // Fast KV ops: ~2 round trips per call (Section 4.3).
  EXPECT_LT(stats.RoundTripsPerCall(), 2.6);
}

TEST_F(JakiroTest, MultipleClientsShareNothing) {
  JakiroConfig config;
  config.server_threads = 2;
  JakiroServer* server = MakeServer(config);
  rdma::Node* client_node2 = &fabric_.AddNode("client2");
  JakiroClient c1(*server, *client_node_);
  JakiroClient c2(*server, *client_node2);
  server->Start();

  int done = 0;
  // `prefix` must be taken by value: the coroutine outlives the Spawn() call
  // expression, so a reference parameter would dangle once the temporary
  // argument is destroyed.
  auto driver = [](JakiroClient* c, std::string prefix, int* out) -> sim::Task<void> {
    std::vector<std::byte> value(1024);
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(co_await c->Put(Bytes(prefix + std::to_string(i)), Bytes(prefix)));
    }
    for (int i = 0; i < 30; ++i) {
      auto got = co_await c->Get(Bytes(prefix + std::to_string(i)), value);
      EXPECT_TRUE(got.has_value());
    }
    ++*out;
  };
  engine_.Spawn(driver(&c1, "alpha", &done));
  engine_.Spawn(driver(&c2, "beta", &done));
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  EXPECT_EQ(done, 2);
}

TEST_F(JakiroTest, LruEvictionUnderOverfill) {
  JakiroConfig config;
  config.server_threads = 1;
  config.buckets_per_partition = 4;  // 32 slots total
  JakiroServer* server = MakeServer(config);
  JakiroClient client(*server, *client_node_);
  server->Start();

  engine_.Spawn([](JakiroClient* c) -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(co_await c->Put(Bytes("key" + std::to_string(i)), Bytes("v")));
    }
  }(&client));
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  EXPECT_LE(server->partition(0).size(), 32u);
  EXPECT_GT(server->partition(0).stats().evictions, 0u);
}

TEST_F(JakiroTest, MultiGetSpansPartitionsAndReportsMisses) {
  JakiroConfig config;
  config.server_threads = 4;
  JakiroServer* server = MakeServer(config);
  JakiroClient client(*server, *client_node_);
  server->Start();

  bool done = false;
  engine_.Spawn([](JakiroClient* c, bool* out) -> sim::Task<void> {
    // Seed 20 keys with distinct value sizes (every partition gets some).
    std::vector<std::byte> value(512);
    for (int i = 0; i < 20; ++i) {
      std::string v(static_cast<size_t>(10 + i), static_cast<char>('a' + i % 26));
      std::memcpy(value.data(), v.data(), v.size());
      EXPECT_TRUE(co_await c->Put(Bytes("mk" + std::to_string(i)),
                                  std::span<const std::byte>(value.data(), v.size())));
    }
    // Batch: all 20 present keys plus 4 misses, interleaved.
    std::vector<std::vector<std::byte>> storage;
    for (int i = 0; i < 20; ++i) {
      storage.push_back(Bytes("mk" + std::to_string(i)));
      if (i % 5 == 0) {
        storage.push_back(Bytes("missing" + std::to_string(i)));
      }
    }
    std::vector<std::span<const std::byte>> keys(storage.begin(), storage.end());
    std::vector<std::byte> arena(16384);
    std::vector<std::optional<std::span<const std::byte>>> results(keys.size());
    co_await c->MultiGet(keys, arena, results);

    for (size_t k = 0; k < keys.size(); ++k) {
      const std::string name(reinterpret_cast<const char*>(storage[k].data()),
                             storage[k].size());
      if (name.rfind("missing", 0) == 0) {
        EXPECT_FALSE(results[k].has_value()) << name;
      } else {
        EXPECT_TRUE(results[k].has_value()) << name;
        if (!results[k].has_value()) {
          continue;
        }
        const int i = std::stoi(name.substr(2));
        EXPECT_EQ(results[k]->size(), static_cast<size_t>(10 + i)) << name;
        EXPECT_EQ(static_cast<char>((*results[k])[0]), static_cast<char>('a' + i % 26));
      }
    }
    *out = true;
  }(&client, &done));
  engine_.RunUntil(sim::Millis(20));
  server->Stop();
  EXPECT_TRUE(done);
  // Grouped by owner: at most one RPC per server thread for the batch
  // (plus the 20 PUTs).
  EXPECT_LE(client.operations(), 20u + 4u);
}

TEST_F(JakiroTest, MultiGetAmortizesRoundTrips) {
  JakiroConfig config;
  config.server_threads = 1;  // single owner: the whole batch is one RPC
  JakiroServer* server = MakeServer(config);
  JakiroClient client(*server, *client_node_);
  server->Start();

  engine_.Spawn([](JakiroClient* c) -> sim::Task<void> {
    for (int i = 0; i < 16; ++i) {
      co_await c->Put(Bytes("b" + std::to_string(i)), Bytes("v"));
    }
    std::vector<std::vector<std::byte>> storage;
    for (int i = 0; i < 16; ++i) {
      storage.push_back(Bytes("b" + std::to_string(i)));
    }
    std::vector<std::span<const std::byte>> keys(storage.begin(), storage.end());
    std::vector<std::byte> arena(4096);
    std::vector<std::optional<std::span<const std::byte>>> results(keys.size());
    co_await c->MultiGet(keys, arena, results);
    for (const auto& r : results) {
      EXPECT_TRUE(r.has_value());
    }
  }(&client));
  engine_.RunUntil(sim::Millis(20));
  server->Stop();
  // 16 PUT calls + exactly 1 MULTIGET call.
  EXPECT_EQ(client.MergedChannelStats().calls, 17u);
}

// ---- Zero-copy GET (docs/memory.md) -------------------------------------------

TEST_F(JakiroTest, ZeroCopyGetAssemblesIdenticalBytes) {
  JakiroServer* server = MakeServer(JakiroConfig::Build().ZeroCopy());
  JakiroClient client(*server, *client_node_);
  server->Start();
  EXPECT_TRUE(server->partition(0).pool_backed());

  int verified = 0;
  engine_.Spawn([](JakiroClient* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> key(16);
    std::vector<std::byte> value(8192);
    std::vector<std::byte> got(16384);
    // Sizes span the pool's slab classes and buddy blocks.
    for (uint64_t id = 0; id < 40; ++id) {
      workload::MakeKey(id, key);
      const size_t size = 32 + id * 150;
      workload::FillValue(id, std::span(value.data(), size));
      EXPECT_TRUE(co_await c->Put(key, std::span<const std::byte>(value.data(), size)));
    }
    for (uint64_t id = 0; id < 40; ++id) {
      workload::MakeKey(id, key);
      auto size = co_await c->Get(key, got);
      EXPECT_TRUE(size.has_value());
      if (size.has_value()) {
        EXPECT_EQ(*size, 32 + id * 150);
        EXPECT_TRUE(workload::CheckValue(id, std::span<const std::byte>(got.data(), *size)));
        ++*out;
      }
    }
  }(&client, &verified));
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  EXPECT_EQ(verified, 40);

  // Every hit GET traveled as an indirect descriptor plus one entry READ;
  // no value bytes were staged through the server's response ring.
  const auto stats = client.MergedChannelStats();
  EXPECT_EQ(stats.zero_copy_sends, 40u);
  EXPECT_EQ(stats.zero_copy_fetches, 40u);
  EXPECT_EQ(stats.zero_copy_fallbacks, 0u);
  uint64_t expected_bytes = 0;
  for (uint64_t id = 0; id < 40; ++id) {
    expected_bytes += 32 + id * 150;
  }
  EXPECT_EQ(stats.zero_copy_bytes, expected_bytes);
}

TEST_F(JakiroTest, ZeroCopyMissesAndDeletesStayOnCopyPath) {
  JakiroServer* server = MakeServer(JakiroConfig::Build().ZeroCopy());
  JakiroClient client(*server, *client_node_);
  server->Start();

  bool done = false;
  engine_.Spawn([](JakiroClient* c, bool* out) -> sim::Task<void> {
    std::vector<std::byte> got(4096);
    EXPECT_FALSE((co_await c->Get(Bytes("absent"), got)).has_value());
    EXPECT_TRUE(co_await c->Put(Bytes("k"), Bytes("v")));
    EXPECT_TRUE(co_await c->Delete(Bytes("k")));
    EXPECT_FALSE((co_await c->Get(Bytes("k"), got)).has_value());
    *out = true;
  }(&client, &done));
  engine_.RunUntil(sim::Millis(10));
  server->Stop();
  EXPECT_TRUE(done);
  EXPECT_EQ(client.MergedChannelStats().zero_copy_sends, 0u);
}

TEST_F(JakiroTest, ZeroCopyZeroLengthValueRoundTrips) {
  JakiroServer* server = MakeServer(JakiroConfig::Build().ZeroCopy());
  JakiroClient client(*server, *client_node_);
  server->Start();

  bool done = false;
  engine_.Spawn([](JakiroClient* c, bool* out) -> sim::Task<void> {
    std::vector<std::byte> got(64);
    EXPECT_TRUE(co_await c->Put(Bytes("empty"), {}));
    auto size = co_await c->Get(Bytes("empty"), got);
    EXPECT_TRUE(size.has_value());
    if (size.has_value()) {
      EXPECT_EQ(*size, 0u);
    }
    *out = true;
  }(&client, &done));
  engine_.RunUntil(sim::Millis(10));
  server->Stop();
  EXPECT_TRUE(done);
  // Empty values need no entry READ: the descriptor alone resolves the call.
  const auto stats = client.MergedChannelStats();
  EXPECT_EQ(stats.zero_copy_sends, 1u);
  EXPECT_EQ(stats.zero_copy_fetches, 0u);
}

TEST_F(JakiroTest, ZeroCopyOversizedValueThrowsLengthError) {
  JakiroServer* server = MakeServer(JakiroConfig::Build().ZeroCopy());
  JakiroClient client(*server, *client_node_);
  server->Start();
  engine_.Spawn([](JakiroClient* c) -> sim::Task<void> {
    co_await c->Put(Bytes("big"), Bytes(std::string(500, 'x')));
    std::vector<std::byte> tiny(16);
    co_await c->Get(Bytes("big"), tiny);
  }(&client));
  EXPECT_THROW(engine_.RunUntil(sim::Millis(5)), std::length_error);
}

TEST_F(JakiroTest, ZeroCopyWorksOnPipelinedChannels) {
  JakiroServer* server = MakeServer(JakiroConfig::Build().Pipelined(4).ZeroCopy());
  JakiroClient client(*server, *client_node_);
  server->Start();

  int verified = 0;
  engine_.Spawn([](JakiroClient* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> value(2048);
    std::vector<std::byte> got(8192);
    for (int i = 0; i < 20; ++i) {
      const std::string v(100 + static_cast<size_t>(i) * 10, static_cast<char>('a' + i % 26));
      std::memcpy(value.data(), v.data(), v.size());
      EXPECT_TRUE(co_await c->Put(Bytes("p" + std::to_string(i)),
                                  std::span<const std::byte>(value.data(), v.size())));
    }
    for (int i = 0; i < 20; ++i) {
      auto size = co_await c->Get(Bytes("p" + std::to_string(i)), got);
      EXPECT_TRUE(size.has_value());
      if (size.has_value()) {
        EXPECT_EQ(*size, 100 + static_cast<size_t>(i) * 10);
        EXPECT_EQ(static_cast<char>(got[0]), static_cast<char>('a' + i % 26));
        ++*out;
      }
    }
  }(&client, &verified));
  engine_.RunUntil(sim::Millis(50));
  server->Stop();
  EXPECT_EQ(verified, 20);
  EXPECT_EQ(client.MergedChannelStats().zero_copy_fetches, 20u);
}

TEST_F(JakiroTest, ZeroCopyFallsBackUnderForcedReply) {
  // Forced server-reply channels cannot deliver an indirect descriptor (the
  // client never fetches): the send must materialize the value once and take
  // the copy path, counted as a fallback.
  JakiroServer* server = MakeServer(JakiroConfig::Build().ZeroCopy().ServerReply());
  JakiroClient client(*server, *client_node_);
  server->Start();

  int verified = 0;
  engine_.Spawn([](JakiroClient* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> got(4096);
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(co_await c->Put(Bytes("f" + std::to_string(i)), Bytes("value")));
    }
    for (int i = 0; i < 10; ++i) {
      auto size = co_await c->Get(Bytes("f" + std::to_string(i)), got);
      EXPECT_TRUE(size.has_value());
      if (size.has_value() && *size == 5u &&
          std::string(reinterpret_cast<const char*>(got.data()), *size) == "value") {
        ++*out;
      }
    }
  }(&client, &verified));
  engine_.RunUntil(sim::Millis(20));
  server->Stop();
  EXPECT_EQ(verified, 10);

  const auto stats = client.MergedChannelStats();
  EXPECT_EQ(stats.zero_copy_fallbacks, 10u);
  EXPECT_EQ(stats.zero_copy_fetches, 0u);
  EXPECT_EQ(stats.fetch_reads, 0u);
  EXPECT_GE(stats.reply_pushes, 20u);
}

TEST_F(JakiroTest, HistoryRecorderJudgesClientVisibleOps) {
  // The explore oracle rides along on real Jakiro traffic: every client op
  // is recorded as an invoke/response pair, and the resulting history is
  // linearizable per key.
  JakiroServer* server = MakeServer();
  JakiroClient client(*server, *client_node_);
  explore::HistoryRecorder recorder;
  client.set_history_recorder(&recorder);
  server->Start();

  engine_.Spawn([](JakiroClient* c) -> sim::Task<void> {
    std::vector<std::byte> value(4096);
    EXPECT_TRUE(co_await c->Put(Bytes("h"), Bytes("v1")));
    EXPECT_TRUE((co_await c->Get(Bytes("h"), value)).has_value());
    EXPECT_TRUE(co_await c->Put(Bytes("h"), Bytes("v2")));
    EXPECT_TRUE((co_await c->Get(Bytes("h"), value)).has_value());
    EXPECT_TRUE(co_await c->Delete(Bytes("h")));
    EXPECT_FALSE((co_await c->Get(Bytes("h"), value)).has_value());
  }(&client));
  engine_.RunUntil(sim::Millis(10));
  server->Stop();

  EXPECT_EQ(recorder.ops().size(), 6u);
  EXPECT_EQ(recorder.completed_ops(), 6u);
  explore::LinResult r = recorder.CheckLinearizable();
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_NO_THROW(recorder.CheckStrict());
}

TEST_F(JakiroTest, MultiGetArenaExhaustionThrows) {
  JakiroServer* server = MakeServer();
  JakiroClient client(*server, *client_node_);
  server->Start();
  engine_.Spawn([](JakiroClient* c) -> sim::Task<void> {
    co_await c->Put(Bytes("big"), Bytes(std::string(500, 'x')));
    std::vector<std::vector<std::byte>> storage{Bytes("big")};
    std::vector<std::span<const std::byte>> keys(storage.begin(), storage.end());
    std::vector<std::byte> arena(16);  // too small
    std::vector<std::optional<std::span<const std::byte>>> results(1);
    co_await c->MultiGet(keys, arena, results);
  }(&client));
  EXPECT_THROW(engine_.RunUntil(sim::Millis(5)), std::length_error);
}

// The request encoders size a request before writing it: a key over the u16
// size field or a request over the output buffer throws std::length_error
// and leaves the buffer untouched.
TEST(KvEncodeTest, OversizedRequestsThrowBeforeWriting) {
  std::vector<std::byte> out(64, std::byte{0x5a});
  const std::vector<std::byte> fits(62);
  const std::vector<std::byte> too_long(63);
  const std::vector<std::byte> huge_key(65536);
  EXPECT_EQ(EncodeGet(out, fits), 64u);
  std::fill(out.begin(), out.end(), std::byte{0x5a});
  EXPECT_THROW(EncodeGet(out, too_long), std::length_error);
  EXPECT_THROW(EncodeDelete(out, too_long), std::length_error);
  EXPECT_THROW(EncodePut(out, Bytes("k"), fits), std::length_error);
  EXPECT_THROW(EncodeGet(out, huge_key), std::length_error);
  std::vector<std::byte> roomy(70000);
  try {
    EncodePut(roomy, huge_key, {});
    ADD_FAILURE() << "a 65536-byte key must not truncate its u16 size field";
  } catch (const std::length_error& e) {
    EXPECT_STREQ(e.what(), "kv: key longer than 65535 bytes");
  }
  for (std::byte b : out) {
    EXPECT_EQ(b, std::byte{0x5a});
  }
}

// Requests that cannot fit the client's message buffer (8256 bytes by
// default) throw std::length_error at the client before anything is sent,
// on window-1 and pipelined channels, and the client stays usable.
TEST_F(JakiroTest, OversizedRequestsThrowLengthError) {
  for (const int window : {1, 4}) {
    sim::Engine engine;
    rdma::Fabric fabric(engine);
    rdma::Node& server_node = fabric.AddNode("server");
    rdma::Node& client_node = fabric.AddNode("client");
    JakiroConfig config;
    config.server_threads = 1;  // every key has one owner
    config.channel_options.window = window;
    JakiroServer server(fabric, server_node, config);
    JakiroClient client(server, client_node);
    server.Start();
    std::vector<std::string> errors;
    bool done = false;
    engine.Spawn([](JakiroClient* c, int calls_per_owner, std::vector<std::string>* caught,
                    bool* finished) -> sim::Task<void> {
      const std::vector<std::byte> key_9k(9 * 1024, std::byte{'k'});
      const std::vector<std::byte> key_64k(65536, std::byte{'k'});
      std::vector<std::byte> value(64);
      auto record = [caught](std::string what) { caught->push_back(std::move(what)); };
      try {
        co_await c->Get(key_9k, value);
      } catch (const std::length_error& e) {
        record(std::string("get: ") + e.what());
      }
      try {
        co_await c->Put(key_9k, Bytes("v"));
      } catch (const std::length_error& e) {
        record(std::string("put: ") + e.what());
      }
      try {
        co_await c->Put(Bytes("k"), std::vector<std::byte>(9 * 1024));
      } catch (const std::length_error& e) {
        record(std::string("put value: ") + e.what());
      }
      try {
        co_await c->Delete(key_64k);
      } catch (const std::length_error& e) {
        record(std::string("delete: ") + e.what());
      }
      // 16-byte keys, 18 request bytes each: 500 per call overrun 8256 (a
      // window-W MultiGet splits one owner's keys into W calls).
      std::vector<std::vector<std::byte>> storage;
      for (int i = 0; i < 500 * calls_per_owner; ++i) {
        std::string key = "key-" + std::to_string(i);
        key.resize(16, '.');
        storage.push_back(Bytes(key));
      }
      std::vector<std::span<const std::byte>> keys(storage.begin(), storage.end());
      std::vector<std::byte> arena(1 << 16);
      std::vector<std::optional<std::span<const std::byte>>> results(keys.size());
      try {
        co_await c->MultiGet(keys, arena, results);
      } catch (const std::length_error& e) {
        record(std::string("multiget: ") + e.what());
      }
      const std::vector<std::span<const std::byte>> long_key{key_9k};
      try {
        co_await c->MultiGet(long_key, arena, results);
      } catch (const std::length_error& e) {
        record(std::string("multiget key: ") + e.what());
      }
      EXPECT_EQ(c->operations(), 0u) << "a rejected request must not be sent";
      // The client still works.
      EXPECT_TRUE(co_await c->Put(Bytes("k"), Bytes("v")));
      const auto got = co_await c->Get(Bytes("k"), value);
      EXPECT_TRUE(got.has_value());
      *finished = true;
    }(&client, window, &errors, &done));
    engine.RunUntil(sim::Millis(10));
    server.Stop();
    EXPECT_TRUE(done) << "window " << window;
    const std::string buffer = "kv: request larger than the message buffer";
    EXPECT_EQ(errors, (std::vector<std::string>{
                          "get: " + buffer, "put: " + buffer, "put value: " + buffer,
                          "delete: kv: key longer than 65535 bytes", "multiget: " + buffer,
                          "multiget key: " + buffer}))
        << "window " << window;
  }
}

// A legal window-1 MultiGet whose response cannot fit the server's 8256-byte
// dispatch buffer: 300 16-byte keys make a 5.4 KB request, but their 32-byte
// values would make a 10.8 KB response. The server answers kError instead of
// writing past the buffer, the client's decode throws, and both sides serve
// on.
TEST_F(JakiroTest, MultiGetResponseOverDispatchBufferThrows) {
  JakiroConfig config;
  config.server_threads = 1;  // every key has one owner: one call
  JakiroServer* server = MakeServer(config);
  JakiroClient client(*server, *client_node_);
  server->Start();
  std::string error;
  bool done = false;
  engine_.Spawn([](JakiroClient* c, std::string* out, bool* finished) -> sim::Task<void> {
    std::vector<std::vector<std::byte>> storage;
    for (int i = 0; i < 300; ++i) {
      std::string key = "key-" + std::to_string(i);
      key.resize(16, '.');
      storage.push_back(Bytes(key));
      EXPECT_TRUE(co_await c->Put(storage.back(), Bytes(std::string(32, 'v'))));
    }
    std::vector<std::span<const std::byte>> keys(storage.begin(), storage.end());
    std::vector<std::byte> arena(1 << 16);
    std::vector<std::optional<std::span<const std::byte>>> results(keys.size());
    try {
      co_await c->MultiGet(keys, arena, results);
    } catch (const std::runtime_error& e) {
      *out = e.what();
    }
    std::vector<std::byte> value(64);
    const auto got = co_await c->Get(storage.front(), value);
    EXPECT_EQ(got, std::optional<size_t>(32));
    *finished = true;
  }(&client, &error, &done));
  engine_.RunUntil(sim::Millis(20));
  server->Stop();
  EXPECT_EQ(error, "jakiro multiget: malformed response");
  EXPECT_TRUE(done);
}

// A server whose MultiGet handler answers with fewer bytes than its count
// claims: the decoder throws instead of reading past the response, in the
// window-1 sequential order and in the pipelined order.
TEST_F(JakiroTest, MultiGetTruncatedResponseThrows) {
  for (const size_t window : {size_t{1}, size_t{4}}) {
    // Cut inside the first entry's value, or before its size field.
    for (const bool cut_in_value : {true, false}) {
      sim::Engine engine;
      rdma::Fabric fabric(engine);
      rdma::Node& server_node = fabric.AddNode("server");
      rdma::Node& client_node = fabric.AddNode("client");
      JakiroConfig config;
      config.server_threads = 1;
      config.channel_options.window = static_cast<int>(window);
      JakiroServer server(fabric, server_node, config);
      server.rpc().RegisterHandler(
          kRpcMultiGet, [cut_in_value](const rfp::HandlerContext&, std::span<const std::byte> req,
                                       std::span<std::byte> resp) {
            uint16_t count = 0;
            std::memcpy(&count, req.data(), sizeof(count));
            resp[0] = static_cast<std::byte>(Status::kOk);
            std::memcpy(resp.data() + 1, &count, sizeof(count));
            size_t size = 1 + sizeof(count);
            if (cut_in_value) {
              const uint32_t claimed = 8;  // only 3 value bytes follow
              std::memcpy(resp.data() + size, &claimed, sizeof(claimed));
              size += sizeof(claimed) + 3;
            }
            return rfp::HandlerResult{size, sim::Nanos(100)};
          });
      JakiroClient client(server, client_node);
      server.Start();
      std::string error;
      engine.Spawn([](JakiroClient* c, std::string* out) -> sim::Task<void> {
        std::vector<std::vector<std::byte>> storage{Bytes("a"), Bytes("b"), Bytes("c")};
        std::vector<std::span<const std::byte>> keys(storage.begin(), storage.end());
        std::vector<std::byte> arena(256);
        std::vector<std::optional<std::span<const std::byte>>> results(keys.size());
        try {
          co_await c->MultiGet(keys, arena, results);
        } catch (const std::runtime_error& e) {
          *out = e.what();
        }
      }(&client, &error));
      engine.RunUntil(sim::Millis(5));
      EXPECT_EQ(error, "jakiro multiget: truncated response")
          << "window " << window << (cut_in_value ? ", cut in value" : ", cut before size");
      server.Stop();
    }
  }
}

}  // namespace
}  // namespace kv
