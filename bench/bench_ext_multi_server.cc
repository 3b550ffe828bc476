// Extension: scale-out. Section 4.5: "This setting takes advantage from the
// asymmetry and hence can achieve a better aggregated throughput if the
// number of clients is higher than the number of servers."
//
// Each Jakiro server saturates its own NIC's in-bound path; with the key
// space sharded across servers, aggregate throughput scales linearly until
// clients run out of out-bound capacity.

#include "bench/common.h"

#include <memory>

#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace {

double RunSharded(int num_servers) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = bench::SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  std::vector<rdma::Node*> server_nodes;
  std::vector<std::unique_ptr<kv::JakiroServer>> servers;
  kv::JakiroConfig config;
  config.server_threads = 4;
  for (int s = 0; s < num_servers; ++s) {
    server_nodes.push_back(&fabric.AddNode("server" + std::to_string(s)));
    servers.push_back(std::make_unique<kv::JakiroServer>(fabric, *server_nodes.back(), config));
  }

  workload::WorkloadSpec spec = bench::PaperWorkload();
  spec.num_keys = 1 << 17;

  // Shard by key id; preload each shard into its server.
  std::vector<std::byte> key(16);
  std::vector<std::byte> value(64);
  for (uint64_t id = 0; id < spec.num_keys; ++id) {
    workload::MakeKey(id, key);
    workload::FillValue(id, std::span<std::byte>(value.data(), 32));
    kv::JakiroServer& owner = *servers[id % static_cast<uint64_t>(num_servers)];
    owner.partition(owner.OwnerThread(key)).Put(key, std::span<const std::byte>(value.data(), 32));
  }

  // 14 client machines x 5 threads, each with a client to every server.
  const int kNodes = 14;
  const int kClients = 70;
  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  struct MultiClient {
    std::vector<std::unique_ptr<kv::JakiroClient>> per_server;
  };
  std::vector<MultiClient> clients(kClients);
  std::vector<uint64_t> ops(kClients, 0);
  const sim::Time warmup = sim::Millis(2);
  const sim::Time end = sim::Millis(8);
  for (int t = 0; t < kClients; ++t) {
    for (int s = 0; s < num_servers; ++s) {
      clients[static_cast<size_t>(t)].per_server.push_back(
          std::make_unique<kv::JakiroClient>(*servers[static_cast<size_t>(s)],
                                             *nodes[static_cast<size_t>(t % kNodes)]));
    }
    engine.Spawn([](sim::Engine& eng, MultiClient* mc, workload::WorkloadSpec sp, int id,
                    int ns, sim::Time w, sim::Time e, uint64_t* count) -> sim::Task<void> {
      workload::Generator gen(sp, bench::SeedOr(0) + static_cast<uint64_t>(id));
      std::vector<std::byte> k(16);
      std::vector<std::byte> v(256);
      std::vector<std::byte> out(256);
      while (eng.now() < e) {
        const workload::Op op = gen.Next();
        workload::MakeKey(op.key_id, k);
        kv::JakiroClient* client =
            mc->per_server[static_cast<size_t>(op.key_id % static_cast<uint64_t>(ns))].get();
        const sim::Time start = eng.now();
        if (op.type == workload::OpType::kGet) {
          co_await client->Get(k, out);
        } else {
          workload::FillValue(op.key_id, std::span<std::byte>(v.data(), 32));
          co_await client->Put(k, std::span<const std::byte>(v.data(), 32));
        }
        if (start >= w && eng.now() <= e) {
          ++*count;
        }
      }
    }(engine, &clients[static_cast<size_t>(t)], spec, t, num_servers, warmup, end,
      &ops[static_cast<size_t>(t)]));
  }
  for (auto& server : servers) {
    server->Start();
  }
  engine.RunUntil(end);
  for (auto& server : servers) {
    server->Stop();
  }
  uint64_t total = 0;
  for (uint64_t o : ops) {
    total += o;
  }
  return static_cast<double>(total) / sim::ToSeconds(end - warmup) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  bench::PrintTitle("Extension: sharded Jakiro scale-out (70 clients, 95% GET, 32 B)");
  bench::PrintHeader({"servers", "agg_mops", "per_server"});
  for (int servers : {1, 2, 3, 4}) {
    const double mops = RunSharded(servers);
    bench::PrintRow({std::to_string(servers), bench::Fmt(mops),
                     bench::Fmt(mops / servers)});
  }
  std::printf("\nexpected: near-linear aggregate scaling while clients outnumber servers —\n"
              "each server NIC contributes its full in-bound budget (Section 4.5)\n");
  return 0;
}
