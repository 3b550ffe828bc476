// Parameter auto-tuning, end to end (paper Section 3.2).
//
// A deployment tool would run this once per cluster:
//   1. profile the hardware (in-bound IOPS by size, out-bound rate, fetch
//      RTT) with one-off micro-benchmarks;
//   2. detect the useful fetch-size window [L, H] and the retry bound N;
//   3. sample the application's result sizes and process times
//      (pre-run / on-line sampling);
//   4. enumerate Eq. 2 and configure the channels with the winning (R, F).
//
// The example then demonstrates the payoff: the tuned F against two
// deliberately mistuned ones on the same workload.
//
//   $ ./examples/autotune

#include <cstdio>
#include <memory>
#include <vector>

#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/rfp/params.h"
#include "src/sim/engine.h"
#include "src/workload/ycsb.h"

namespace {

// The application whose parameters we are tuning: 95% GET, values bimodal
// (mostly 64 B records, some 480 B blobs).
workload::WorkloadSpec AppWorkload() {
  workload::WorkloadSpec spec;
  spec.num_keys = 1 << 15;
  spec.get_fraction = 0.95;
  spec.value_size = workload::ValueSizeSpec::Fixed(64);  // size drawn per-key below
  return spec;
}

uint32_t AppValueSize(uint64_t key_id) { return key_id % 10 == 0 ? 480 : 64; }

double RunWithFetchSize(uint32_t fetch_size) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  kv::JakiroConfig config;
  config.server_threads = 4;
  config.channel_options.fetch_size = fetch_size;
  kv::JakiroServer server(fabric, server_node, config);

  const workload::WorkloadSpec spec = AppWorkload();
  std::vector<std::byte> key(16);
  std::vector<std::byte> value(1024);
  for (uint64_t id = 0; id < spec.num_keys; ++id) {
    workload::MakeKey(id, key);
    const uint32_t vs = AppValueSize(id);
    workload::FillValue(id, std::span<std::byte>(value.data(), vs));
    server.partition(server.OwnerThread(key)).Put(key,
                                                  std::span<const std::byte>(value.data(), vs));
  }

  const int kClients = 21;
  std::vector<rdma::Node*> nodes;
  std::vector<std::unique_ptr<kv::JakiroClient>> clients;
  std::vector<uint64_t> ops(kClients, 0);
  const sim::Time deadline = sim::Millis(6);
  for (int i = 0; i < kClients; ++i) {
    if (i < 7) {
      nodes.push_back(&fabric.AddNode("client" + std::to_string(i)));
    }
    clients.push_back(std::make_unique<kv::JakiroClient>(server, *nodes[static_cast<size_t>(i % 7)]));
    engine.Spawn([](sim::Engine& eng, kv::JakiroClient* c, workload::WorkloadSpec sp, int id,
                    sim::Time e, uint64_t* count) -> sim::Task<void> {
      workload::Generator gen(sp, static_cast<uint64_t>(id));
      std::vector<std::byte> k(16);
      std::vector<std::byte> v(1024);
      std::vector<std::byte> out(1024);
      while (eng.now() < e) {
        const workload::Op op = gen.Next();
        workload::MakeKey(op.key_id, k);
        if (op.type == workload::OpType::kGet) {
          co_await c->Get(k, out);
        } else {
          const uint32_t vs = AppValueSize(op.key_id);
          workload::FillValue(op.key_id, std::span<std::byte>(v.data(), vs));
          co_await c->Put(k, std::span<const std::byte>(v.data(), vs));
        }
        ++*count;
      }
    }(engine, clients.back().get(), spec, i, deadline, &ops[static_cast<size_t>(i)]));
  }
  server.Start();
  engine.RunUntil(deadline);
  server.Stop();
  uint64_t total = 0;
  for (uint64_t o : ops) {
    total += o;
  }
  return static_cast<double>(total) / sim::ToSeconds(deadline) / 1e6;
}

}  // namespace

int main() {
  // Step 1: profile the hardware (a one-off micro-benchmark pass).
  std::printf("profiling the fabric...\n");
  const rfp::HardwareProfile profile =
      rfp::MeasureProfile(rdma::FabricConfig{}, sim::Micros(500));
  std::printf("  in-bound peak %.2f MOPS, out-bound %.2f MOPS, fetch RTT %.0f ns\n",
              profile.InboundMopsAt(32), profile.outbound_write_mops, profile.fetch_rtt_ns);

  // Step 2: hardware knees.
  const uint32_t l = rfp::DetectL(profile);
  const uint32_t h = rfp::DetectH(profile);
  const int n = rfp::DeriveRetryBound(profile);
  std::printf("  window: F in [%u, %u], R in [1, %d]\n", l, h, n);

  // Step 3: sample the application (pre-run): GET responses are
  // 1 status byte + value; process time ~0.3 us.
  rfp::OnlineSampler sampler(256, /*seed=*/7);
  for (uint64_t id = 0; id < 4096; ++id) {
    sampler.Record(1 + AppValueSize(id), sim::Nanos(300));
  }

  // Step 4: Eq. 2 enumeration.
  const rfp::ParamChoice choice =
      rfp::SelectParameters(profile, sampler.sizes(), sampler.times());
  std::printf("  selector picks R=%d, F=%u\n\n", choice.retry_threshold, choice.fetch_size);

  // The payoff: tuned F vs a too-small and a too-large F.
  struct Candidate {
    const char* label;
    uint32_t fetch;
  };
  for (const Candidate& c : {Candidate{"too small (64)", 64},
                             Candidate{"tuned", choice.fetch_size},
                             Candidate{"too large (1024)", 1024}}) {
    const double mops = RunWithFetchSize(c.fetch);
    std::printf("  F=%-5u %-18s -> %.2f MOPS\n", c.fetch, c.label, mops);
  }
  std::printf("\nthe tuned F covers the small responses in one fetch without paying the\n"
              "large-F bandwidth tax — the paper's Eq. 2 trade-off, automated\n");
  return 0;
}
