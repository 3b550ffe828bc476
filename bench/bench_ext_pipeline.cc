// Extension: pipelined multi-slot channels (docs/pipelining.md).
//
// One echo cluster (1 server x 2 threads, 4 client channels on 2 nodes) is
// driven CLOSED-LOOP in windowed batches (bench::DriveCalls): each driver
// submits `window` calls back to back (SubmitCall stages them into the
// channel's slot ring), then awaits them all; the first await flushes the
// staged requests in a single doorbell batch. p50_us and p99_us run from
// each call's SubmitCall to its completion. Channels are forced into remote-fetch mode so the sweep
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
// Expected shape (the Pipelining rows of tests/claims/claims.py assert the
// batching, error and latency columns; the speedups are read off the table):
//   * small-value throughput at window >= 4 is >= 2x the window=1 baseline
//     (the win saturates once the batch spans the whole fetch round trip);
//   * mean doorbell-batch occupancy is > 1 whenever window > 1;
//   * p50_us grows with the window at every value size: a deeper window
//     queues more calls ahead of each one (Little's law);
//   * large values blunt the win: serialization floors the follower cost
//     (Eq. 2's size term), so batching amortizes a smaller share.

#include "bench/common.h"

#include <cstdio>
#include <vector>

#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/sim/engine.h"

namespace {

constexpr int kServerThreads = 2;
constexpr int kClientNodes = 2;
constexpr int kClients = 4;
constexpr sim::Time kProcessNs = 150;  // one hash-lookup's worth of server CPU

const sim::Time kMeasureStart = sim::Millis(1);
const sim::Time kRunEnd = sim::Millis(5);

struct Outcome {
  double mops = 0;
  double occupancy = 0;  // mean ops per doorbell batch
  rfp::Channel::Stats stats;
  bench::Tally calls;  // latency runs from each call's submit
};

// `workers` server threads; `multicore` additionally pins them to CpuSet
// cores and turns on the multicore dispatch extras (coalesced fetch sweeps,
// doorbell-batched reply publication — docs/multicore.md).
Outcome RunSweepPoint(int window, uint32_t value_bytes, int workers, bool multicore) {
  sim::Engine engine;
  rfp::ServerOptions server_options;
  server_options.multicore = multicore;
  bench::EchoCluster cluster(engine, {}, kClientNodes, workers, server_options);
  cluster.server.RegisterHandler(bench::kCallRpc, bench::ReplyHandler(value_bytes, kProcessNs));

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
  cluster.Start(kClients, options);

  bench::Load load;
  load.window = window;
  load.reply_bytes = value_bytes;
  load.measure_start = kMeasureStart;
  load.end = kRunEnd;
  load.count = bench::CountBy::kCompletion;
  cluster.Run(load);

  Outcome out;
  out.calls = cluster.Total();
  out.mops = out.calls.Mops(kRunEnd - kMeasureStart);
  out.stats = cluster.ChannelStats();
  out.occupancy = out.stats.batch_occupancy.count() > 0 ? out.stats.batch_occupancy.mean() : 1.0;
  return out;
}

void PrintPoint(int window, uint32_t value, int workers, const Outcome& out, double speedup) {
  bench::PrintRow({bench::FmtInt(static_cast<uint64_t>(window)), bench::FmtInt(value),
                   bench::FmtInt(static_cast<uint64_t>(workers)), bench::Fmt(out.mops),
                   bench::Fmt(speedup), bench::Fmt(out.calls.PercentileUs(0.50), 1),
                   bench::Fmt(out.calls.PercentileUs(0.99), 1),
                   bench::FmtInt(out.stats.doorbell_batches), bench::Fmt(out.occupancy),
                   bench::FmtInt(out.calls.errors())});
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
      PrintPoint(window, value, kServerThreads, out, speedup);
    }
  }

  // Multicore dispatch rows (docs/multicore.md): deepest window, smallest
  // value, workers swept — coalesced fetch + batched reply publication ride
  // along. bench_ext_multicore drives the full MOPS-vs-workers x window grid.
  for (int workers : {1, 2, 4}) {
    const Outcome out =
        RunSweepPoint(windows.back(), values.front(), workers, /*multicore=*/true);
    const double speedup = baseline_small > 0 ? out.mops / baseline_small : 0;
    PrintPoint(windows.back(), values.front(), workers, out, speedup);
  }

  std::printf(
      "\nexpected: small-value throughput at window >= 4 is >= 2x the window=1\n"
      "baseline (measured min here: %.2fx); mean doorbell occupancy exceeds 1\n"
      "for every window > 1 row; large values narrow the win because payload\n"
      "serialization floors the batched follower cost (Eq. 2's size term)\n",
      min_small_speedup_w4);
  return 0;
}
