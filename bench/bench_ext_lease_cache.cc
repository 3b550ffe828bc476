// Extension: lease-based client caching (C-Hint-style) on the skewed
// read-intensive workload — the consistency trade the paper contrasts with
// RFP (Section 5).
//
// A lease lets hot GETs complete locally with zero network ops, multiplying
// read throughput far beyond any NIC bound — at the price of bounded
// staleness: other clients' writes stay invisible for up to the lease. The
// bench sweeps the lease and reports both sides of the trade, with Jakiro
// (linearizable, no application cache logic) as the reference point.

#include "bench/common.h"

#include <memory>

#include "src/kv/lease_cache.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace {

struct Outcome {
  double mops = 0;
  double hit_rate = 0;
  double stale_fraction = 0;  // GETs that returned a superseded version
};

Outcome RunLeased(sim::Time lease_ns) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = bench::SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  kv::PilafConfig pc;
  pc.num_slots = 1 << 19;
  kv::PilafServer server(fabric, server_node, pc);

  workload::WorkloadSpec spec = bench::PaperWorkload();
  spec.num_keys = 1 << 17;
  spec.distribution = workload::KeyDistribution::kZipfian;
  spec.value_size = workload::ValueSizeSpec::Fixed(32);

  // Preload with version 0; a shared version table tracks the latest
  // committed version per key so readers can detect staleness.
  auto versions = std::make_shared<std::vector<uint64_t>>(spec.num_keys, 0);
  std::vector<std::byte> key(16);
  std::vector<std::byte> value(64);
  for (uint64_t id = 0; id < spec.num_keys; ++id) {
    workload::MakeKey(id, key);
    workload::FillValueVersioned(id, 0, std::span<std::byte>(value.data(), 32));
    if (!server.Preload(key, std::span<const std::byte>(value.data(), 32))) {
      throw std::runtime_error("lease bench preload failed");
    }
  }

  const int kClients = 30;
  const int kNodes = 6;
  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  struct ClientPair {
    std::unique_ptr<kv::PilafClient> base;
    std::unique_ptr<kv::LeaseCachedClient> cached;
  };
  std::vector<ClientPair> clients(kClients);
  std::vector<uint64_t> ops(kClients, 0);
  std::vector<uint64_t> stale(kClients, 0);
  const sim::Time warmup = sim::Millis(2);
  const sim::Time end = sim::Millis(8);
  for (int t = 0; t < kClients; ++t) {
    clients[static_cast<size_t>(t)].base = std::make_unique<kv::PilafClient>(
        fabric, *nodes[static_cast<size_t>(t % kNodes)], server, t % kv::kPilafServerThreads);
    kv::LeaseCacheConfig lc;
    lc.lease_ns = lease_ns;
    lc.capacity = 16384;
    clients[static_cast<size_t>(t)].cached = std::make_unique<kv::LeaseCachedClient>(
        engine, clients[static_cast<size_t>(t)].base.get(), lc);
    engine.Spawn([](sim::Engine& eng, kv::LeaseCachedClient* c, workload::WorkloadSpec sp,
                    std::shared_ptr<std::vector<uint64_t>> vers, int id, sim::Time w,
                    sim::Time e, uint64_t* count, uint64_t* stale_count) -> sim::Task<void> {
      workload::Generator gen(sp, bench::SeedOr(0) + static_cast<uint64_t>(id));
      std::vector<std::byte> k(16);
      std::vector<std::byte> v(64);
      std::vector<std::byte> out(256);
      while (eng.now() < e) {
        const workload::Op op = gen.Next();
        workload::MakeKey(op.key_id, k);
        const sim::Time start = eng.now();
        if (op.type == workload::OpType::kGet) {
          auto size = co_await c->Get(k, out);
          if (start >= w && eng.now() <= e && size.has_value() && *size >= 8) {
            uint64_t seen = 0;
            std::memcpy(&seen, out.data(), sizeof(seen));
            if (seen < (*vers)[op.key_id]) {
              ++*stale_count;
            }
          }
        } else {
          const uint64_t next = (*vers)[op.key_id] + 1;
          workload::FillValueVersioned(op.key_id, next, std::span<std::byte>(v.data(), 32));
          co_await c->Put(k, std::span<const std::byte>(v.data(), 32));
          // Publish the version only after the PUT committed, so "stale"
          // counts cache staleness, not in-flight writes.
          if ((*vers)[op.key_id] < next) {
            (*vers)[op.key_id] = next;
          }
        }
        if (start >= w && eng.now() <= e) {
          ++*count;
        }
      }
    }(engine, clients[static_cast<size_t>(t)].cached.get(), spec, versions, t, warmup, end,
      &ops[static_cast<size_t>(t)], &stale[static_cast<size_t>(t)]));
  }
  server.Start();
  engine.RunUntil(end);
  server.Stop();

  Outcome outcome;
  uint64_t total = 0;
  uint64_t total_stale = 0;
  uint64_t hits = 0;
  uint64_t gets = 0;
  for (int t = 0; t < kClients; ++t) {
    total += ops[static_cast<size_t>(t)];
    total_stale += stale[static_cast<size_t>(t)];
    hits += clients[static_cast<size_t>(t)].cached->stats().cache_hits;
    gets += clients[static_cast<size_t>(t)].cached->stats().gets;
  }
  outcome.mops = static_cast<double>(total) / sim::ToSeconds(end - warmup) / 1e6;
  outcome.hit_rate = gets > 0 ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0;
  outcome.stale_fraction =
      gets > 0 ? static_cast<double>(total_stale) / static_cast<double>(gets) : 0.0;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  // Reference: Jakiro on the same skewed workload (linearizable, no cache).
  bench::KvRunConfig jc;
  jc.workload = bench::PaperWorkload();
  jc.workload.distribution = workload::KeyDistribution::kZipfian;
  const double jakiro = bench::RunKv(jc).mops;

  bench::PrintTitle("Extension: C-Hint-style lease caching (Zipf .99, 95% GET, 32 B)");
  bench::PrintHeader({"lease_us", "mops", "hit_rate", "stale_gets", "vs_jakiro"});
  for (int lease_us : {0, 10, 50, 200, 1000}) {
    const Outcome r = RunLeased(sim::Micros(lease_us));
    bench::PrintRow({std::to_string(lease_us), bench::Fmt(r.mops),
                     bench::Fmt(100.0 * r.hit_rate, 1) + "%",
                     bench::Fmt(100.0 * r.stale_fraction, 3) + "%",
                     bench::Fmt(r.mops / jakiro, 2) + "x"});
  }
  std::printf("\n(jakiro reference: %.2f MOPS, 0%% stale, no per-application cache logic)\n"
              "expected: leases buy hot-read throughput at a bounded-staleness price that\n"
              "grows with the lease — the consistency reasoning the paper says C-Hint-class\n"
              "designs push onto every application, and RFP avoids\n",
              jakiro);
  return 0;
}
