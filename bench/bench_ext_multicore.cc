// Extension: multi-core server dispatch toward the in-bound ceiling
// (docs/multicore.md).
//
// One echo cluster — 1 server, 2 client nodes, 8 channels of 32-byte
// responses — is driven closed-loop in windowed bursts while the server's
// worker count sweeps {1, 2, 4, 6, 8} x window {16, 32, 64}. Workers are pinned
// to sim::CpuSet cores above the NIC-station reservation and all sweep CPU
// is charged through ComputeOn, so the CPU side of the model saturates for
// real; channels run forced remote-fetch with coalesced fetch sweeps and
// doorbell-batched reply publication.
//
// The point of the sweep is the paper's Fig 12 argument pushed to its
// limit: with few workers the server CPU model is the bottleneck and MOPS
// scales with the worker count; once the workers can drain requests faster
// than the in-bound engine delivers them, throughput pins to the NIC model
// instead. Per call the in-bound engine then serves one request WRITE
// (89 ns min gap) plus a bandwidth-priced share of one spanning response
// READ per burst, so the ceiling sits a little under the raw 11.26 MOPS
// in-bound envelope — and well above the ~5.6 MOPS that per-slot fetches
// (2 in-bound ops/call) top out at.
//
// Each driver paces itself: it posts a whole burst in one doorbell batch,
// sleeps an adaptive estimate of the burst's service time, then awaits —
// so the steady state is ONE spanning READ per burst instead of a retry
// storm of spans that would eat the very in-bound capacity under test.
//
// Columns: inbound_util is rdma::Nic::ServeUtilization over the measure
// window; cpu_util is the busiest worker core's CoreUtilization; the
// bottleneck column names whichever model is nearer saturation; p50_us and
// p99_us run from each call's SubmitCall to its completion. The claims gate
// (tests/claims/claims.py) pins the headline: some 32-byte row reaches
// >= 9 MOPS with bottleneck == nic_inbound.

#include "bench/common.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace {

constexpr int kClientNodes = 2;
constexpr int kClients = 8;
constexpr uint32_t kValueBytes = 32;  // the paper's small-value workload
constexpr sim::Time kProcessNs = 150;

const sim::Time kMeasureStart = sim::Millis(1);
const sim::Time kRunEnd = sim::Millis(6);

std::byte ExpectedByte(size_t i) {
  return static_cast<std::byte>(static_cast<uint8_t>(i * 31 + 7));
}

struct DriverCounts {
  uint64_t completed = 0;
  uint64_t mismatches = 0;
  uint64_t failed = 0;
  sim::Histogram latency;  // submit -> completion, ns
};

// Closed-loop windowed driver with adaptive pacing: post the burst in one
// doorbell batch, sleep roughly the burst's service time, then await. The
// controller raises the pace by whatever extra time the awaits took and
// decays it geometrically otherwise, so it hugs the point where one
// mopping-up fetch sweep per burst finds every response landed.
sim::Task<void> Driver(sim::Engine& eng, rfp::RpcClient* client, int window,
                       DriverCounts* counts) {
  std::vector<std::byte> req(8);
  std::vector<std::vector<std::byte>> resp(
      static_cast<size_t>(window), std::vector<std::byte>(kValueBytes));
  std::vector<rfp::Channel::CallHandle> handles(static_cast<size_t>(window));
  std::vector<sim::Time> submitted(static_cast<size_t>(window));
  sim::Time pace = static_cast<sim::Time>(window) * 400;
  uint64_t n = 0;
  while (eng.now() < kRunEnd) {
    for (int i = 0; i < window; ++i) {
      ++n;
      for (size_t b = 0; b < req.size(); ++b) {
        req[b] = static_cast<std::byte>(static_cast<uint8_t>(n >> (8 * b)));
      }
      submitted[static_cast<size_t>(i)] = eng.now();
      handles[static_cast<size_t>(i)] = co_await client->SubmitCall(1, req);
    }
    co_await client->channel()->FlushCalls();
    const sim::Time flushed = eng.now();
    if (pace > 0) co_await eng.Sleep(pace);
    for (int i = 0; i < window; ++i) {
      try {
        const size_t got = co_await client->AwaitCall(
            handles[static_cast<size_t>(i)], resp[static_cast<size_t>(i)]);
        if (eng.now() >= kMeasureStart) {
          ++counts->completed;
          counts->latency.Record(eng.now() - submitted[static_cast<size_t>(i)]);
        }
        if (got != kValueBytes) {
          ++counts->mismatches;
        } else if (resp[static_cast<size_t>(i)][0] != ExpectedByte(0) ||
                   resp[static_cast<size_t>(i)][31] != ExpectedByte(31)) {
          ++counts->mismatches;
        }
      } catch (const std::exception&) {
        ++counts->failed;
      }
    }
    // Even a perfectly paced burst pays one mopping-up sweep (span issue +
    // wire round trip, ~2 us); only time beyond that means the pace undershot
    // the burst's service time. Track the measured burst latency with an
    // EWMA (additive ratcheting amplifies backoff noise into runaway pace)
    // and bias it slightly downward so the pace keeps probing for the point
    // where the service time just binds.
    constexpr sim::Time kSweepCostNs = 2000;
    const sim::Time measured = eng.now() - flushed;
    const sim::Time target = measured > kSweepCostNs ? measured - kSweepCostNs : 0;
    pace = (7 * pace + target) / 8;
    pace = pace > 200 ? pace - 200 : 0;
  }
}

struct Outcome {
  double mops = 0;
  double p50_us = 0;
  double p99_us = 0;
  double inbound_util = 0;   // server NIC serve engine, measure window
  double cpu_util = 0;       // busiest worker core, measure window
  const char* bottleneck = "";
  uint64_t steals = 0;
  rfp::Channel::Stats stats;
  uint64_t errors = 0;
};

Outcome RunPoint(int workers, int window) {
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
  server_options.multicore = true;
  rfp::RpcServer server(fabric, server_node, workers, server_options);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte>,
                               std::span<std::byte> out) -> rfp::HandlerResult {
    for (size_t i = 0; i < kValueBytes; ++i) {
      out[i] = ExpectedByte(i);
    }
    return rfp::HandlerResult{kValueBytes, kProcessNs};
  });

  rfp::RfpOptions options;
  options.window = window;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  options.coalesced_fetch = true;
  // Ring blocks price the spanning READ, so size them to the payload.
  options.max_message_bytes = kValueBytes;
  // Straggler insurance: a burst whose pace-sleep undershot retries its
  // fetch sweep on a backoff instead of spinning spans at the NIC.
  options.fetch_backoff_initial_ns = 1000;
  options.fetch_backoff_max_ns = 8000;

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
  // Arm exact utilization windows so the bottleneck attribution below is the
  // busy fraction of the measure window alone, not of the whole run.
  server_node.nic().WatchUtilization(kMeasureStart);
  server_node.cpus().WatchUtilization(kMeasureStart);
  for (int t = 0; t < kClients; ++t) {
    engine.Spawn(Driver(engine, stubs[static_cast<size_t>(t)].get(), window,
                        &counts[static_cast<size_t>(t)]));
  }
  engine.RunUntil(kRunEnd);

  Outcome out;
  sim::Histogram latency;
  uint64_t completed = 0;
  for (const DriverCounts& c : counts) {
    completed += c.completed;
    out.errors += c.mismatches + c.failed;
    latency.Merge(c.latency);
  }
  out.mops = static_cast<double>(completed) / sim::ToSeconds(kRunEnd - kMeasureStart) / 1e6;
  out.p50_us = static_cast<double>(latency.Percentile(0.50)) / 1000.0;
  out.p99_us = static_cast<double>(latency.Percentile(0.99)) / 1000.0;
  out.inbound_util = server_node.nic().ServeUtilization(kMeasureStart, kRunEnd);
  std::set<int> cores;
  for (int t = 0; t < workers; ++t) {
    cores.insert(server.thread_core(t));
  }
  for (int core : cores) {
    out.cpu_util = std::max(
        out.cpu_util, server_node.cpus().CoreUtilization(core, kMeasureStart, kRunEnd));
  }
  out.bottleneck = out.inbound_util >= out.cpu_util ? "nic_inbound" : "cpu";
  out.steals = server.channel_steals();
  for (rfp::Channel* channel : channels) {
    out.stats.Merge(channel->stats());
  }
  server.Stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);

  bench::PrintTitle(
      "Extension: multi-core dispatch, MOPS vs workers (32B echo, forced fetch, coalesced)");
  bench::PrintHeader({"workers", "window", "mops", "p50_us", "p99_us", "inbound_util",
                      "cpu_util", "bottleneck", "coalesced", "steals", "errors"});

  double best_mops = 0;
  const char* best_bottleneck = "";
  for (int window : {16, 32, 64}) {
    for (int workers : {1, 2, 4, 6, 8}) {
      const Outcome out = RunPoint(workers, window);
      if (out.mops > best_mops) {
        best_mops = out.mops;
        best_bottleneck = out.bottleneck;
      }
      bench::PrintRow({bench::FmtInt(static_cast<uint64_t>(workers)),
                       bench::FmtInt(static_cast<uint64_t>(window)), bench::Fmt(out.mops),
                       bench::Fmt(out.p50_us, 1), bench::Fmt(out.p99_us, 1),
                       bench::Fmt(out.inbound_util), bench::Fmt(out.cpu_util),
                       out.bottleneck, bench::FmtInt(out.stats.coalesced_fetches),
                       bench::FmtInt(out.steals), bench::FmtInt(out.errors)});
    }
  }

  std::printf(
      "\nexpected: MOPS scales with workers while cpu_util leads (bottleneck=cpu),\n"
      "then pins near the in-bound envelope once the NIC serve engine saturates\n"
      "(bottleneck=nic_inbound). Peak here: %.2f MOPS (%s) vs the 11.26 MOPS raw\n"
      "in-bound ceiling — coalesced sweeps spend ~1 in-bound op per call where\n"
      "per-slot fetches spend 2, which is the whole headroom story of Fig 12.\n",
      best_mops, best_bottleneck);
  return 0;
}
