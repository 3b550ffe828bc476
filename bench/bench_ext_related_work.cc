// Extension: the Section 5 related-work landscape, measured.
//
// The paper argues qualitatively against two alternatives to RFP:
//  * FaRM-style neighborhood reads — fewer round trips than Pilaf but
//    N x (Sk+Sv) bytes fetched per lookup ("a lot of the bandwidth and MOPS
//    will be wasted", N usually > 6); FaRM can post higher raw lookup rates
//    for tiny values, which the paper concedes (8M/server), but the
//    advantage inverts as values grow and PUTs stay server-reply-bound.
//  * UD-based RPC (HERD/FaSST) — two-sided datagrams can be fast, but the
//    server pays out-bound issue cost per reply, and the application owns
//    loss/reorder/duplication.
//
// This bench puts numbers on both, against Jakiro on the same fabric.

#include "bench/common.h"

#include <memory>

#include "src/kv/farm_store.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace {

struct FarmOutcome {
  double mops = 0;
  double waste = 0;
  double mean_us = 0;
};

FarmOutcome RunFarm(uint32_t value_size, double get_fraction) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  kv::FarmConfig config;
  // Tight FaRM-like geometry: N = 8 slots fetched per GET (the paper's
  // "N usually larger than 6"), run at ~25% fill where displacement chains
  // stay viable.
  config.num_buckets = 1 << 19;
  config.slots_per_bucket = 2;
  config.neighborhood = 4;
  config.max_value_bytes = static_cast<uint16_t>(value_size);
  kv::FarmServer server(fabric, server_node, config);

  workload::WorkloadSpec spec = bench::PaperWorkload();
  spec.num_keys = 1 << 18;  // 50% fill
  spec.get_fraction = get_fraction;
  spec.value_size = workload::ValueSizeSpec::Fixed(value_size);

  std::vector<std::byte> key(16);
  std::vector<std::byte> value(8192);
  for (uint64_t id = 0; id < spec.num_keys; ++id) {
    workload::MakeKey(id, key);
    workload::FillValue(id, std::span<std::byte>(value.data(), value_size));
    if (!server.Preload(key, std::span<const std::byte>(value.data(), value_size))) {
      throw std::runtime_error("farm preload failed");
    }
  }

  const int kClients = 35;
  const int kNodes = 7;
  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  std::vector<std::unique_ptr<kv::FarmClient>> clients;
  std::vector<uint64_t> ops(kClients, 0);
  const sim::Time warmup = sim::Millis(2);
  const sim::Time end = sim::Millis(8);
  sim::Histogram latency;
  std::vector<sim::Histogram> lats(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.push_back(std::make_unique<kv::FarmClient>(fabric, *nodes[static_cast<size_t>(t % kNodes)], server,
                                                       t % kv::kFarmServerThreads));
    engine.Spawn([](sim::Engine& eng, kv::FarmClient* c, workload::WorkloadSpec sp, int id,
                    sim::Time w, sim::Time e, uint64_t* count,
                    sim::Histogram* lat) -> sim::Task<void> {
      workload::Generator gen(sp, static_cast<uint64_t>(id));
      std::vector<std::byte> k(16);
      std::vector<std::byte> v(8192);
      std::vector<std::byte> out(8192);
      while (eng.now() < e) {
        const workload::Op op = gen.Next();
        workload::MakeKey(op.key_id, k);
        const sim::Time start = eng.now();
        if (op.type == workload::OpType::kGet) {
          co_await c->Get(k, out);
        } else {
          workload::FillValue(op.key_id, std::span<std::byte>(v.data(), op.value_size));
          co_await c->Put(k, std::span<const std::byte>(v.data(), op.value_size));
        }
        if (start >= w && eng.now() <= e) {
          ++*count;
          lat->Record(eng.now() - start);
        }
      }
    }(engine, clients.back().get(), spec, t, warmup, end, &ops[static_cast<size_t>(t)],
      &lats[static_cast<size_t>(t)]));
  }
  server.Start();
  engine.RunUntil(end);
  server.Stop();

  FarmOutcome outcome;
  uint64_t total = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_useful = 0;
  for (int t = 0; t < kClients; ++t) {
    total += ops[static_cast<size_t>(t)];
    latency.Merge(lats[static_cast<size_t>(t)]);
    bytes_read += clients[static_cast<size_t>(t)]->stats().bytes_read;
    bytes_useful += clients[static_cast<size_t>(t)]->stats().bytes_useful;
  }
  outcome.mops = static_cast<double>(total) / sim::ToSeconds(end - warmup) / 1e6;
  outcome.waste = bytes_useful > 0
                      ? static_cast<double>(bytes_read) / static_cast<double>(bytes_useful)
                      : 0.0;
  outcome.mean_us = latency.mean() / 1000.0;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  bench::PrintTitle("Extension: FaRM-style neighborhood reads vs Jakiro (95% GET)");
  bench::PrintHeader({"value_B", "jakiro", "farm", "farm_waste", "farm_us", "jakiro_us"});
  for (uint32_t value : {32u, 64u, 128u, 256u, 512u}) {
    bench::KvRunConfig jc;
    jc.workload = bench::PaperWorkload();
    jc.workload.value_size = workload::ValueSizeSpec::Fixed(value);
    jc.channel.fetch_size = std::max<uint32_t>(256, value + 24);
    const bench::KvRunResult jakiro = bench::RunKv(jc);
    const FarmOutcome farm = RunFarm(value, 0.95);
    bench::PrintRow({std::to_string(value), bench::Fmt(jakiro.mops), bench::Fmt(farm.mops),
                     bench::Fmt(farm.waste, 1) + "x", bench::Fmt(farm.mean_us),
                     bench::Fmt(jakiro.latency.mean() / 1000.0)});
  }
  std::printf("\nexpected: FaRM posts high raw GET rates for tiny values (the 8M/server the\n"
              "paper concedes) but fetches N x (Sk+Sv) bytes per lookup (waste > 6x) and\n"
              "inverts as cells grow; its PUT path is server-reply-bound like Pilaf's\n");
  return 0;
}
