// Extension: connection scale-out (docs/connections.md).
//
// Table 1 — pooled connection churn. M logical clients (RDMAvisor's
// million-client regime) are played through 32 pooled endpoints against a
// server running 4 shared UD QPs: every logical client is one
// connect / echo / disconnect generation through conn::PooledServer. The
// scaling claim is the census: however large M grows, the server holds 4
// QPs and one shared slot arena — LiveQpCount and RegisteredBytes are flat,
// and the `dedicated_MB` column shows what the same M clients would pin as
// per-client RC channels (2 rings each). Connection setup is pure fast
// path: the registration-count column stays at its warm-up value, so
// connects/sec is bounded by round trips, not MR work.
//
// Table 2 — steady-state lease throughput. The same echo service driven
// through conn::Connector in three modes: dedicated channels (legacy
// bringup), a warm LRU cache (capacity >= working set: every burst is a
// hit), and a deliberately undersized cache (capacity < working set: every
// burst re-establishes through eviction). Expected shape:
//   * cached-warm lands within 10% of dedicated — the cache's steady-state
//     cost is one map lookup per lease, not per call;
//   * cached-tight pays the reconnect round trips for every burst and drops
//     well below, which is the price the capacity knob trades for memory.
//
//   --clients=N caps the Table-1 sweep (default 1000000).

#include "bench/common.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/conn/connector.h"
#include "src/conn/pooled.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace {

constexpr uint16_t kEcho = 1;
constexpr int kClientNodes = 4;
constexpr int kEndpointsPerNode = 8;
constexpr int kEndpoints = kClientNodes * kEndpointsPerNode;
constexpr int kServerThreads = 2;

void RegisterEcho(rfp::RpcServer& server) {
  server.RegisterHandler(kEcho, [](const rfp::HandlerContext&,
                                   std::span<const std::byte> req,
                                   std::span<std::byte> resp) {
    std::memcpy(resp.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), sim::Nanos(300)};
  });
}

// ---- Table 1: pooled churn ----------------------------------------------------

struct ScaleResult {
  double conn_per_sec = 0;
  size_t live_qps = 0;
  size_t server_registered = 0;   // bytes, after all M generations
  uint64_t registrations = 0;     // server MR registrations over the whole run
  uint64_t retransmits = 0;
  uint64_t served = 0;
};

sim::Task<void> ChurnDriver(sim::Engine& engine, conn::PooledClient* client,
                            uint64_t generations, uint64_t* done, sim::Time* finish) {
  std::vector<std::byte> resp(64);
  const std::string payload = "scale-echo";
  for (uint64_t g = 0; g < generations; ++g) {
    co_await client->Connect();
    co_await client->Call(kEcho, std::as_bytes(std::span(payload.data(), payload.size())),
                          resp);
    co_await client->Disconnect();
  }
  ++*done;
  if (engine.now() > *finish) {
    *finish = engine.now();
  }
}

ScaleResult RunScale(uint64_t logical_clients) {
  sim::Engine engine;
  rdma::FabricConfig config;
  config.seed = bench::SeedOr(config.seed);
  rdma::Fabric fabric(engine, config);
  rdma::Node& server_node = fabric.AddNode("server");
  rfp::RpcServer rpc(fabric, server_node, kServerThreads);
  RegisterEcho(rpc);

  conn::PooledServer server(fabric, rpc);
  server.Start();

  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < kClientNodes; ++n) {
    nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  std::vector<std::unique_ptr<conn::PooledClient>> endpoints;
  for (int e = 0; e < kEndpoints; ++e) {
    endpoints.push_back(std::make_unique<conn::PooledClient>(
        fabric, *nodes[static_cast<size_t>(e % kClientNodes)], server));
  }

  uint64_t done = 0;
  sim::Time finish = 0;
  for (int e = 0; e < kEndpoints; ++e) {
    uint64_t quota = logical_clients / kEndpoints;
    if (e == 0) {
      quota += logical_clients % kEndpoints;
    }
    engine.Spawn(ChurnDriver(engine, endpoints[static_cast<size_t>(e)].get(), quota, &done,
                             &finish));
  }
  while (done < kEndpoints) {
    engine.RunUntil(engine.now() + sim::Millis(100));
  }

  ScaleResult r;
  r.conn_per_sec = static_cast<double>(logical_clients) / sim::ToSeconds(finish);
  r.live_qps = fabric.LiveQpCount(server_node);
  r.server_registered = fabric.RegisteredBytes(server_node);
  r.registrations = fabric.RegistrationCount(server_node);
  r.served = server.requests_served();
  for (const auto& ep : endpoints) {
    r.retransmits += ep->stats().retransmits;
  }
  server.Stop();
  rpc.Stop();
  return r;
}

// What M dedicated RC channels would pin on the server: two rings per
// channel, measured from one real AcceptChannel.
size_t DedicatedFootprintPerChannel() {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  rfp::RpcServer rpc(fabric, server_node, 1);
  rfp::Channel* channel = rpc.AcceptChannel(client_node, rfp::RfpOptions{}, 0);
  return channel->registered_footprint_bytes();
}

// ---- Table 2: lease throughput ------------------------------------------------

struct LeaseResult {
  double mops = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

// Dedicated mode holds its one channel for the whole run (legacy bringup:
// connect once, call forever). Cached modes go back through the cache for
// every 16-call burst, which is where the hit path earns its keep.
sim::Task<void> BurstDriver(sim::Engine& engine, conn::Connector* connector,
                            rfp::RpcServer* server, rdma::Node* node, int thread,
                            sim::Time deadline, uint64_t* ops) {
  const std::string payload = "burst-echo";
  std::vector<std::byte> resp(64);
  const bool release_per_burst =
      connector->options().mode == conn::ConnectorOptions::Mode::kCached;
  conn::ChannelLease held;
  if (!release_per_burst) {
    held = connector->Lease(*server, *node, rfp::RfpOptions{}, thread);
  }
  while (engine.now() < deadline) {
    conn::ChannelLease burst;
    if (release_per_burst) {
      burst = connector->Lease(*server, *node, rfp::RfpOptions{}, thread);
    }
    rfp::RpcClient* stub = release_per_burst ? burst.stub() : held.stub();
    for (int k = 0; k < 16 && engine.now() < deadline; ++k) {
      co_await stub->Call(
          kEcho, std::as_bytes(std::span(payload.data(), payload.size())), resp);
      ++*ops;
    }
  }
}

LeaseResult RunLeases(const conn::ConnectorOptions& copts) {
  sim::Engine engine;
  rdma::FabricConfig config;
  config.seed = bench::SeedOr(config.seed);
  rdma::Fabric fabric(engine, config);
  rdma::Node& server_node = fabric.AddNode("server");
  rfp::RpcServer server(fabric, server_node, kServerThreads);
  RegisterEcho(server);
  server.Start();

  conn::Connector connector(copts);
  const sim::Time deadline = sim::Millis(4);
  uint64_t ops = 0;
  for (int n = 0; n < kClientNodes; ++n) {
    rdma::Node& node = fabric.AddNode("client" + std::to_string(n));
    for (int t = 0; t < kServerThreads; ++t) {
      engine.Spawn(BurstDriver(engine, &connector, &server, &node, t, deadline, &ops));
    }
  }
  engine.RunUntil(deadline);

  LeaseResult r;
  r.mops = static_cast<double>(ops) / sim::ToSeconds(deadline) / 1e6;
  if (connector.cache() != nullptr) {
    r.hits = connector.cache()->stats().hits;
    r.misses = connector.cache()->stats().misses;
    r.evictions = connector.cache()->stats().evictions;
  }
  server.Stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  uint64_t max_clients = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--clients=", 0) == 0) {
      max_clients = std::stoull(arg.substr(10));
    }
  }

  const size_t per_channel = DedicatedFootprintPerChannel();
  bench::PrintTitle("Extension: pooled connection scale-out (" +
                    std::to_string(kEndpoints) + " endpoints, " +
                    std::to_string(conn::kPooledQps) + " server UD QPs)");
  bench::PrintHeader({"clients", "conn_per_sec", "server_qps", "server_KB", "dedicated_MB",
                      "mr_regs", "retransmits"});
  for (const uint64_t clients : {uint64_t{1'000}, uint64_t{10'000}, uint64_t{100'000},
                                 uint64_t{1'000'000}}) {
    if (clients > max_clients) {
      continue;
    }
    const ScaleResult r = RunScale(clients);
    bench::PrintRow({bench::FmtInt(clients), bench::Fmt(r.conn_per_sec / 1e6, 3) + "M",
                     bench::FmtInt(r.live_qps),
                     bench::FmtInt(r.server_registered / 1024),
                     bench::Fmt(static_cast<double>(clients) * static_cast<double>(per_channel) /
                                    (1024.0 * 1024.0),
                                1),
                     bench::FmtInt(r.registrations), bench::FmtInt(r.retransmits)});
  }
  std::printf("\n(server census is flat in M: %d QPs and one shared slot arena serve every\n"
              "row, while per-client RC channels would pin dedicated_MB of rings)\n\n",
              conn::kPooledQps);

  conn::ConnectorOptions dedicated;  // kDirect
  conn::ConnectorOptions warm;
  warm.mode = conn::ConnectorOptions::Mode::kCached;
  warm.cache.max_channels = kClientNodes * kServerThreads;  // working set fits
  conn::ConnectorOptions tight;
  tight.mode = conn::ConnectorOptions::Mode::kCached;
  tight.cache.max_channels = kClientNodes * kServerThreads / 2;  // forced churn

  const LeaseResult base = RunLeases(dedicated);
  const LeaseResult hot = RunLeases(warm);
  const LeaseResult cold = RunLeases(tight);

  bench::PrintTitle("Steady-state echo throughput through conn::Connector");
  bench::PrintHeader({"mode", "mops", "vs_dedicated", "hits", "misses", "evictions"});
  bench::PrintRow({"dedicated", bench::Fmt(base.mops), "1.00x", "-", "-", "-"});
  bench::PrintRow({"cached-warm", bench::Fmt(hot.mops), bench::Fmt(hot.mops / base.mops) + "x",
                   bench::FmtInt(hot.hits), bench::FmtInt(hot.misses),
                   bench::FmtInt(hot.evictions)});
  bench::PrintRow({"cached-tight", bench::Fmt(cold.mops),
                   bench::Fmt(cold.mops / base.mops) + "x", bench::FmtInt(cold.hits),
                   bench::FmtInt(cold.misses), bench::FmtInt(cold.evictions)});
  std::printf("\nexpected: cached-warm within 10%% of dedicated (a lease hit is one map\n"
              "lookup); cached-tight re-establishes every burst and pays the difference\n");
  return 0;
}
