// conn::Connector — the one client-bringup API (docs/connections.md) — and
// the kv::ConfigBuilder preset surface that rode along in the same redesign.
//
//   * direct mode keeps the legacy lifetime: the channel is server-owned and
//     survives the lease, exactly like the old hand-rolled AcceptChannel
//     blocks it replaced;
//   * cached mode shares channels across leases and works end-to-end under
//     JakiroClient (same answers as a direct-mode client);
//   * ConfigBuilder presets compose, conflicting paradigms are rejected at
//     build time, and the deprecated free-function wrappers still produce
//     identical configs.

#include "src/conn/connector.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"
#include "src/workload/ycsb.h"

namespace conn {
namespace {

constexpr uint16_t kEcho = 1;

class ConnectorTest : public ::testing::Test {
 protected:
  ConnectorTest() {
    server_ = std::make_unique<rfp::RpcServer>(fabric_, server_node_, 2);
    server_->RegisterHandler(kEcho, [](const rfp::HandlerContext&,
                                       std::span<const std::byte> req,
                                       std::span<std::byte> resp) {
      std::memcpy(resp.data(), req.data(), req.size());
      return rfp::HandlerResult{req.size(), sim::Nanos(300)};
    });
    server_->Start();
  }

  ~ConnectorTest() override { server_->Stop(); }

  void Echo(rfp::RpcClient* stub) {
    bool done = false;
    engine_.Spawn([](rfp::RpcClient* s, bool* out) -> sim::Task<void> {
      const std::string msg = "ping";
      std::vector<std::byte> resp(64);
      const size_t n = co_await s->Call(
          kEcho, std::as_bytes(std::span(msg.data(), msg.size())), resp);
      EXPECT_EQ(n, 4u);
      *out = true;
    }(stub, &done));
    engine_.RunUntil(engine_.now() + sim::Millis(2));
    ASSERT_TRUE(done);
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node& server_node_{fabric_.AddNode("server")};
  rdma::Node& client_node_{fabric_.AddNode("client")};
  std::unique_ptr<rfp::RpcServer> server_;
  rfp::RfpOptions options_;
};

TEST_F(ConnectorTest, DirectLeaseKeepsLegacyServerOwnedLifetime) {
  Connector connector;  // default mode: kDirect
  EXPECT_EQ(connector.cache(), nullptr);
  rfp::Channel* channel = nullptr;
  {
    ChannelLease lease = connector.Lease(*server_, client_node_, options_, 0);
    ASSERT_TRUE(lease.valid());
    channel = lease.channel();
    Echo(lease.stub());
  }
  // Releasing a direct lease drops the stub but not the channel: the server
  // still owns it, as with the old AcceptChannel bringup.
  EXPECT_EQ(server_->channels_closed(), 0u);
  EXPECT_TRUE(server_->CloseChannel(channel));

  // Each direct lease is a dedicated channel even for the same key.
  ChannelLease a = connector.Lease(*server_, client_node_, options_, 0);
  ChannelLease b = connector.Lease(*server_, client_node_, options_, 0);
  EXPECT_NE(a.channel(), b.channel());
}

TEST_F(ConnectorTest, LeaseAllCoversEveryServerThread) {
  Connector connector;
  std::vector<ChannelLease> leases = connector.LeaseAll(*server_, client_node_, options_);
  ASSERT_EQ(leases.size(), 2u);
  EXPECT_NE(leases[0].channel(), leases[1].channel());
  Echo(leases[0].stub());
  Echo(leases[1].stub());
}

TEST_F(ConnectorTest, CachedModeSharesChannelsAcrossLeases) {
  ConnectorOptions copts;
  copts.mode = ConnectorOptions::Mode::kCached;
  Connector connector(copts);
  ASSERT_NE(connector.cache(), nullptr);

  rfp::Channel* first = nullptr;
  {
    ChannelLease lease = connector.Lease(*server_, client_node_, options_, 0);
    first = lease.channel();
    Echo(lease.stub());
  }
  ChannelLease again = connector.Lease(*server_, client_node_, options_, 0);
  EXPECT_EQ(again.channel(), first);
  EXPECT_EQ(connector.cache()->stats().hits, 1u);
  EXPECT_EQ(connector.cache()->stats().misses, 1u);
  Echo(again.stub());
}

TEST_F(ConnectorTest, JakiroOverCachedConnectorMatchesDirect) {
  kv::JakiroConfig config;
  config.server_threads = 2;
  config.buckets_per_partition = 1 << 8;
  kv::JakiroServer kv_server(fabric_, fabric_.AddNode("kv"), config);
  kv_server.Start();

  ConnectorOptions copts;
  copts.mode = ConnectorOptions::Mode::kCached;
  Connector cached(copts);
  Connector direct;
  kv::JakiroClient cached_client(kv_server, client_node_, cached);
  kv::JakiroClient direct_client(kv_server, fabric_.AddNode("client2"), direct);

  bool done = false;
  engine_.Spawn([](kv::JakiroClient* writer, kv::JakiroClient* reader,
                   bool* out) -> sim::Task<void> {
    std::vector<std::byte> key(16);
    std::vector<std::byte> value(64);
    std::vector<std::byte> got(256);
    for (uint64_t id = 0; id < 32; ++id) {
      workload::MakeKey(id, key);
      workload::FillValue(id, std::span<std::byte>(value.data(), 48));
      co_await writer->Put(key, std::span<const std::byte>(value.data(), 48));
    }
    for (uint64_t id = 0; id < 32; ++id) {
      workload::MakeKey(id, key);
      const auto size = co_await reader->Get(key, got);
      EXPECT_TRUE(size.has_value() && *size == 48u);
      if (!size.has_value() || *size != 48u) {
        co_return;
      }
      workload::FillValue(id, std::span<std::byte>(value.data(), 48));
      EXPECT_EQ(std::memcmp(got.data(), value.data(), 48), 0);
    }
    *out = true;
  }(&cached_client, &direct_client, &done));
  engine_.RunUntil(sim::Millis(20));
  EXPECT_TRUE(done);
  // The cached client's endpoints resolved through the connector's cache.
  EXPECT_EQ(cached.cache()->stats().misses, 2u);  // one per server thread
  kv_server.Stop();
}

// ---- ConfigBuilder ----------------------------------------------------------

TEST(ConfigBuilderTest, PresetsComposeIntoOneConfig) {
  const kv::JakiroConfig config =
      kv::JakiroConfig::Build().FaultTolerant().Pipelined(8).ZeroCopy();
  EXPECT_GT(config.channel_options.fetch_timeout_ns, 0);
  EXPECT_TRUE(config.channel_options.checksum_responses);
  EXPECT_EQ(config.channel_options.window, 8);
  EXPECT_TRUE(config.zero_copy_get);
  // No preset touched the paradigm: the hybrid switch stays adaptive.
  EXPECT_EQ(config.channel_options.force_mode, rfp::RfpOptions::ForceMode::kAdaptive);

  const kv::JakiroConfig guarded = kv::JakiroConfig::Build().OverloadProtected();
  EXPECT_TRUE(guarded.channel_options.breaker_enabled);
  EXPECT_TRUE(guarded.server_options.admission_control);
  EXPECT_GT(guarded.channel_options.call_deadline_ns, 0);
}

TEST(ConfigBuilderTest, BuildFromBasePreservesCallerFields) {
  kv::JakiroConfig base;
  base.server_threads = 3;
  base.buckets_per_partition = 999;
  const kv::JakiroConfig config = kv::JakiroConfig::Build(base).ServerReply();
  EXPECT_EQ(config.server_threads, 3);
  EXPECT_EQ(config.buckets_per_partition, 999u);
  EXPECT_EQ(config.channel_options.force_mode, rfp::RfpOptions::ForceMode::kForceReply);
}

TEST(ConfigBuilderTest, ConflictingParadigmsAreRejectedAtBuildTime) {
  EXPECT_THROW(kv::JakiroConfig::Build().ServerReply().NoSwitch(), std::invalid_argument);
  EXPECT_THROW(kv::JakiroConfig::Build().NoSwitch().ServerReply(), std::invalid_argument);
  // Re-forcing the same paradigm is idempotent, not a conflict.
  EXPECT_NO_THROW(kv::JakiroConfig::Build().ServerReply().ServerReply());
  EXPECT_NO_THROW(kv::JakiroConfig::Build().NoSwitch().Pipelined(4).NoSwitch());
}

}  // namespace
}  // namespace conn
