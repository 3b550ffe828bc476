// Extension: pipelined multi-slot channels (docs/pipelining.md).
//
// One echo cluster (1 server x 2 threads, 4 client channels on 2 nodes) is
// driven CLOSED-LOOP in windowed batches: each driver submits `window` calls
// back to back (SubmitCall stages them into the channel's slot ring), then
// awaits them all; the first await flushes the staged requests in a single
// doorbell batch. Channels are forced into remote-fetch mode so the sweep
// isolates the pipelining effect on the paper's RFP fast path: request
// WRITEs and response-fetch READs for a whole window coalesce into one
// doorbell each (followers pay rdma::kOutboundBatchMarginalNs instead
// of the full issue cost), the server serves every ready slot in one sweep
// visit, and the per-call round trip stops being the throughput bound.
//
// The sweep crosses window {1, 2, 4, 8, 16} x value size {32, 256, 1024}.
// window=1 is the pre-pipelining channel, bit for bit — its rows are the
// baseline the speedup column divides by.
//
// Expected shape (asserted by tests/rfp/pipeline_test.cc and the --json
// smoke test in tests/obs/):
//   * small-value throughput at window >= 4 is >= 2x the window=1 baseline
//     (the win saturates once the batch spans the whole fetch round trip);
//   * mean doorbell-batch occupancy is > 1 whenever window > 1;
//   * large values blunt the win: serialization floors the follower cost
//     (Eq. 2's size term), so batching amortizes a smaller share.

#include "bench/common.h"

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace {

constexpr int kServerThreads = 2;
constexpr int kClientNodes = 2;
constexpr int kClients = 4;
constexpr sim::Time kProcessNs = 150;  // one hash-lookup's worth of server CPU

const sim::Time kMeasureStart = sim::Millis(1);
const sim::Time kRunEnd = sim::Millis(5);

std::byte ExpectedByte(size_t i) {
  return static_cast<std::byte>(static_cast<uint8_t>(i * 31 + 7));
}

struct DriverCounts {
  uint64_t completed = 0;  // calls finished inside the measure window
  uint64_t mismatches = 0;
  uint64_t failed = 0;
  sim::Histogram latency;  // submit -> completion, ns
};

// Closed-loop windowed driver: submit `window` calls, await them all, repeat.
// Responses land in per-slot buffers because up to `window` are outstanding.
sim::Task<void> Driver(sim::Engine& eng, rfp::RpcClient* client, int window,
                       uint32_t value_bytes, DriverCounts* counts) {
  std::vector<std::byte> req(8);
  std::vector<std::vector<std::byte>> resp(
      static_cast<size_t>(window),
      std::vector<std::byte>(static_cast<size_t>(value_bytes)));
  std::vector<rfp::Channel::CallHandle> handles(static_cast<size_t>(window));
  uint64_t n = 0;
  while (eng.now() < kRunEnd) {
    for (int i = 0; i < window; ++i) {
      ++n;
      for (size_t b = 0; b < req.size(); ++b) {
        req[b] = static_cast<std::byte>(static_cast<uint8_t>(n >> (8 * b)));
      }
      handles[static_cast<size_t>(i)] = co_await client->SubmitCall(1, req);
    }
    for (int i = 0; i < window; ++i) {
      const sim::Time start = eng.now();
      try {
        const size_t got =
            co_await client->AwaitCall(handles[static_cast<size_t>(i)],
                                       resp[static_cast<size_t>(i)]);
        if (eng.now() >= kMeasureStart) {
          ++counts->completed;
          counts->latency.Record(eng.now() - start);
        }
        if (got != value_bytes) {
          ++counts->mismatches;
        } else {
          for (size_t b = 0; b < got; b += 97) {  // sampled content check
            if (resp[static_cast<size_t>(i)][b] != ExpectedByte(b)) {
              ++counts->mismatches;
              break;
            }
          }
        }
      } catch (const std::exception&) {
        ++counts->failed;
      }
    }
  }
}

struct Outcome {
  double mops = 0;
  double p50_us = 0;
  double p99_us = 0;
  double occupancy = 0;  // mean ops per doorbell batch
  rfp::Channel::Stats stats;
  uint64_t mismatches = 0;
  uint64_t failed = 0;
};

// `workers` server threads; `multicore` additionally pins them to CpuSet
// cores and turns on the multicore dispatch extras (coalesced fetch sweeps,
// doorbell-batched reply publication — docs/multicore.md).
Outcome RunSweepPoint(int window, uint32_t value_bytes, int workers, bool multicore) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = bench::SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  std::vector<rdma::Node*> client_nodes;
  for (int c = 0; c < kClientNodes; ++c) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(c)));
  }

  rfp::ServerOptions server_options;
  server_options.multicore = multicore;
  rfp::RpcServer server(fabric, server_node, workers, server_options);
  server.RegisterHandler(1, [value_bytes](const rfp::HandlerContext&,
                                          std::span<const std::byte>,
                                          std::span<std::byte> resp) -> rfp::HandlerResult {
    for (size_t i = 0; i < value_bytes; ++i) {
      resp[i] = ExpectedByte(i);
    }
    return rfp::HandlerResult{value_bytes, kProcessNs};
  });

  rfp::RfpOptions options;
  options.window = window;
  // Pin remote-fetch so the sweep isolates pipelining on the RFP fast path
  // (no mode switches mid-run).
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  options.coalesced_fetch = multicore;
  if (multicore) {
    // Coalesced sweeps read whole response blocks, so block size — not
    // fetch_size — prices the spanning READ. Shrink the ring blocks to the
    // payload and pace retries so failed sweeps back off instead of
    // re-reading the span in a tight loop.
    options.max_message_bytes = value_bytes + 64;
    options.fetch_backoff_initial_ns = 500;
    options.fetch_backoff_max_ns = 4000;
  }

  std::vector<rfp::Channel*> channels;
  std::vector<std::unique_ptr<rfp::RpcClient>> stubs;
  std::vector<DriverCounts> counts(kClients);
  for (int t = 0; t < kClients; ++t) {
    rfp::Channel* channel = server.AcceptChannel(
        *client_nodes[static_cast<size_t>(t % kClientNodes)], options, t % workers);
    channels.push_back(channel);
    stubs.push_back(std::make_unique<rfp::RpcClient>(channel));
  }
  server.Start();

  for (int t = 0; t < kClients; ++t) {
    engine.Spawn(Driver(engine, stubs[static_cast<size_t>(t)].get(), window, value_bytes,
                        &counts[static_cast<size_t>(t)]));
  }
  engine.RunUntil(kRunEnd);
  server.Stop();

  Outcome out;
  sim::Histogram latency;
  uint64_t completed = 0;
  for (const DriverCounts& c : counts) {
    completed += c.completed;
    out.mismatches += c.mismatches;
    out.failed += c.failed;
    latency.Merge(c.latency);
  }
  const sim::Time measure = kRunEnd - kMeasureStart;
  out.mops = static_cast<double>(completed) / sim::ToSeconds(measure) / 1e6;
  out.p50_us = static_cast<double>(latency.Percentile(0.50)) / 1000.0;
  out.p99_us = static_cast<double>(latency.Percentile(0.99)) / 1000.0;
  for (rfp::Channel* channel : channels) {
    out.stats.Merge(channel->stats());
  }
  out.occupancy = out.stats.batch_occupancy.count() > 0 ? out.stats.batch_occupancy.mean() : 1.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);

  const std::vector<int> windows = {1, 2, 4, 8, 16};
  const std::vector<uint32_t> values = {32, 256, 1024};

  bench::PrintTitle(
      "Extension: pipelined multi-slot channels (closed-loop windowed echo, forced fetch)");
  bench::PrintHeader({"window", "value", "workers", "mops", "speedup", "p50_us", "p99_us",
                      "doorbells", "occupancy", "errors"});
  double min_small_speedup_w4 = 1e9;
  double baseline_small = 0;  // window=1 at the smallest value: multicore rows reuse it
  for (uint32_t value : values) {
    double baseline = 0;
    for (int window : windows) {
      const Outcome out = RunSweepPoint(window, value, kServerThreads, /*multicore=*/false);
      if (window == 1) {
        baseline = out.mops;
        if (value == values.front()) {
          baseline_small = baseline;
        }
      }
      const double speedup = baseline > 0 ? out.mops / baseline : 0;
      if (value == values.front() && window >= 4 && speedup < min_small_speedup_w4) {
        min_small_speedup_w4 = speedup;
      }
      bench::PrintRow({bench::FmtInt(static_cast<uint64_t>(window)), bench::FmtInt(value),
                       bench::FmtInt(static_cast<uint64_t>(kServerThreads)),
                       bench::Fmt(out.mops), bench::Fmt(speedup), bench::Fmt(out.p50_us, 1),
                       bench::Fmt(out.p99_us, 1), bench::FmtInt(out.stats.doorbell_batches),
                       bench::Fmt(out.occupancy), bench::FmtInt(out.mismatches + out.failed)});
    }
  }

  // Multicore dispatch rows (docs/multicore.md): deepest window, smallest
  // value, workers swept — coalesced fetch + batched reply publication ride
  // along. bench_ext_multicore drives the full MOPS-vs-workers x window grid.
  for (int workers : {1, 2, 4}) {
    const Outcome out =
        RunSweepPoint(windows.back(), values.front(), workers, /*multicore=*/true);
    const double speedup = baseline_small > 0 ? out.mops / baseline_small : 0;
    bench::PrintRow({bench::FmtInt(static_cast<uint64_t>(windows.back())),
                     bench::FmtInt(values.front()),
                     bench::FmtInt(static_cast<uint64_t>(workers)), bench::Fmt(out.mops),
                     bench::Fmt(speedup), bench::Fmt(out.p50_us, 1), bench::Fmt(out.p99_us, 1),
                     bench::FmtInt(out.stats.doorbell_batches), bench::Fmt(out.occupancy),
                     bench::FmtInt(out.mismatches + out.failed)});
  }

  std::printf(
      "\nexpected: small-value throughput at window >= 4 is >= 2x the window=1\n"
      "baseline (measured min here: %.2fx); mean doorbell occupancy exceeds 1\n"
      "for every window > 1 row; large values narrow the win because payload\n"
      "serialization floors the batched follower cost (Eq. 2's size term)\n",
      min_small_speedup_w4);
  return 0;
}
