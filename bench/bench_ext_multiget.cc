// Extension: batched MULTIGET over RFP.
//
// Batching N keys into one call amortizes the request/fetch round trip
// (per-key in-bound cost drops from 2 ops toward 2/N ops) — but the batched
// response grows with N, so past the bandwidth knee the gain flattens:
// exactly the size/IOPS trade Eq. 2 captures for single GETs, recurring at
// the batch level. F is set per batch size as the selector would.

#include "bench/common.h"

#include <memory>

#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace {

struct Outcome {
  double key_mops = 0;
  double call_mops = 0;
};

Outcome RunBatched(int batch, uint32_t fetch_size) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = bench::SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  kv::JakiroConfig config;
  config.server_threads = 6;
  config.channel_options.fetch_size = fetch_size;
  kv::JakiroServer server(fabric, server_node, config);

  workload::WorkloadSpec spec = bench::PaperWorkload();
  spec.num_keys = 1 << 17;
  std::vector<std::byte> key(16);
  std::vector<std::byte> value(64);
  for (uint64_t id = 0; id < spec.num_keys; ++id) {
    workload::MakeKey(id, key);
    workload::FillValue(id, std::span<std::byte>(value.data(), 32));
    server.partition(server.OwnerThread(key)).Put(key,
                                                  std::span<const std::byte>(value.data(), 32));
  }

  const int kClients = 35;
  const int kNodes = 7;
  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  std::vector<std::unique_ptr<kv::JakiroClient>> clients;
  std::vector<uint64_t> keys_done(kClients, 0);
  const sim::Time warmup = sim::Millis(2);
  const sim::Time end = sim::Millis(6);
  for (int t = 0; t < kClients; ++t) {
    clients.push_back(std::make_unique<kv::JakiroClient>(server, *nodes[static_cast<size_t>(t % kNodes)]));
    engine.Spawn([](sim::Engine& eng, kv::JakiroClient* c, workload::WorkloadSpec sp, int id,
                    int n, sim::Time w, sim::Time e, uint64_t* count) -> sim::Task<void> {
      workload::Generator gen(sp, bench::SeedOr(0) + static_cast<uint64_t>(id));
      std::vector<std::vector<std::byte>> storage(static_cast<size_t>(n),
                                                  std::vector<std::byte>(16));
      std::vector<std::span<const std::byte>> keys(static_cast<size_t>(n));
      std::vector<std::byte> arena(65536);
      std::vector<std::optional<std::span<const std::byte>>> results(static_cast<size_t>(n));
      while (eng.now() < e) {
        for (int i = 0; i < n; ++i) {
          workload::MakeKey(gen.Next().key_id, storage[static_cast<size_t>(i)]);
          keys[static_cast<size_t>(i)] = storage[static_cast<size_t>(i)];
        }
        const sim::Time start = eng.now();
        co_await c->MultiGet(keys, arena, results);
        if (start >= w && eng.now() <= e) {
          *count += static_cast<uint64_t>(n);
        }
      }
    }(engine, clients.back().get(), spec, t, batch, warmup, end,
      &keys_done[static_cast<size_t>(t)]));
  }
  server.Start();
  engine.RunUntil(end);
  server.Stop();
  uint64_t total = 0;
  for (uint64_t k : keys_done) {
    total += k;
  }
  Outcome outcome;
  outcome.key_mops = static_cast<double>(total) / sim::ToSeconds(end - warmup) / 1e6;
  outcome.call_mops = outcome.key_mops / batch;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  bench::PrintTitle("Extension: batched MULTIGET (95% uniform keys, 32 B values, 6 threads)");
  bench::PrintHeader({"batch", "F", "keys_mops", "calls_mops"});
  for (int batch : {1, 2, 4, 8, 16}) {
    // Size F as the selector would: enough for the batch's whole response
    // (keys spread over 6 owners, so each sub-batch carries ~batch/6 + slack
    // values), clamped into the [L, H] hardware window.
    const uint32_t per_owner = static_cast<uint32_t>(batch / 6 + 2);
    const uint32_t fetch = std::clamp<uint32_t>(16 + per_owner * 36, 256, 1024);
    const Outcome r = RunBatched(batch, fetch);
    bench::PrintRow({std::to_string(batch), std::to_string(fetch), bench::Fmt(r.key_mops),
                     bench::Fmt(r.call_mops)});
  }
  std::printf("\nexpected: per-key throughput rises with batch size as the round trip\n"
              "amortizes, flattening once responses hit the bandwidth knee — Eq. 2's\n"
              "size/IOPS trade, recurring at the batch level\n");
  return 0;
}
