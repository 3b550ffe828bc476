// Ablation: the hybrid-switch hysteresis (DESIGN.md §4).
//
// The paper switches to server-reply only after TWO consecutive calls
// exhaust their retries (Section 3.2), so rare stragglers don't flap the
// channel. This ablation injects a bimodal process time (mostly fast, a few
// slow requests) and sweeps the hysteresis: with hysteresis 1 the channel
// flaps into reply mode on every straggler (~1580 switches per run, against
// 28 at hysteresis 2); from 3 on it stays in remote-fetch. Throughput is
// about equal throughout (5.43 MOPS at 1, 5.18-5.19 from 2 on): the rule
// buys a stable channel, not speed. The `Switch hysteresis` row of
// tests/claims/claims.py pins the switch counts.

#include "bench/common.h"

#include <cstdio>
#include <stdexcept>

#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace {

struct Result {
  double mops;
  uint64_t switches;
  bench::Tally calls;
};

Result RunBimodal(int hysteresis, double slow_fraction) {
  sim::Engine engine;
  bench::EchoCluster cluster(engine, {}, /*client_nodes=*/7, /*server_threads=*/8);
  sim::Rng rng(bench::SeedOr(42));
  cluster.server.RegisterHandler(
      bench::kCallRpc, [&rng, slow_fraction](const rfp::HandlerContext&,
                                             std::span<const std::byte> req,
                                             std::span<std::byte> resp) -> rfp::HandlerResult {
        const bool slow = rng.NextDouble() < slow_fraction;
        return rfp::HandlerResult{bench::FillReply(req, resp, 32),
                                  slow ? sim::Micros(25) : sim::Nanos(400)};
      });

  rfp::RfpOptions options;
  options.slow_calls_before_switch = hysteresis;
  cluster.Start(/*clients=*/21, options);

  bench::Load load;
  load.request_bytes = 1;
  load.measure_start = sim::Millis(2);
  load.end = sim::Millis(10);
  cluster.Run(load);

  Result result;
  result.calls = cluster.Total();
  if (result.calls.errors() > 0) {
    throw std::runtime_error("switch ablation: a call failed or returned a wrong reply");
  }
  result.mops = result.calls.Mops(load.end - load.measure_start);
  const rfp::Channel::Stats stats = cluster.ChannelStats();
  result.switches = stats.switches_to_reply + stats.switches_to_fetch;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  bench::PrintTitle("Ablation: switch hysteresis under a bimodal workload (0.5% slow requests)");
  bench::PrintHeader({"hysteresis", "mops", "mode_switches", "p50_us", "p95_us"});
  for (int h : {1, 2, 3, 4}) {
    const Result r = RunBimodal(h, 0.005);
    bench::PrintRow({std::to_string(h), bench::Fmt(r.mops), bench::FmtInt(r.switches),
                     bench::Fmt(r.calls.PercentileUs(0.5)),
                     bench::Fmt(r.calls.PercentileUs(0.95))});
  }
  std::printf("\nexpected: hysteresis 1 flaps between modes on every straggler (the paper's\n"
              "\"two continuous slow calls\" rule prevents this); flapped calls pay the\n"
              "reply-mode polling latency, visible in the tail\n");
  return 0;
}
