// Extension: graceful degradation under saturation (docs/overload.md).
//
// One echo cluster (1 server x 2 threads, 32 client channels on 4 nodes)
// is driven OPEN-LOOP: every channel fires requests at scheduled arrival
// times regardless of completions, and latency is measured from the
// scheduled arrival — so server-side queueing shows up in the numbers
// instead of silently throttling the offered load, as a closed loop would.
//
// The sweep crosses the saturation point (~1.1 Mops for this cluster) twice,
// once per configuration:
//   * protected: server admission control (watermark detector + per-sweep
//     budget + BUSY shedding), client per-call deadline, circuit breaker,
//     and the overload override of the R-based mode switch;
//   * unprotected: the stock adaptive channel, no deadline, no shedding.
//
// Expected shape (asserted by tests/rfp/overload_test.cc):
//   * below saturation the two configurations are equivalent (protection is
//     behavior-neutral when the watermarks never trip);
//   * at >= 2x saturation the protected cluster keeps goodput within ~10% of
//     its peak and the p99 of *admitted* requests bounded near the call
//     deadline, shedding the excess with cheap BUSY headers;
//   * the unprotected cluster's queue grows without bound: latency from
//     scheduled arrival climbs with the length of the run (the p99 column is
//     a large fraction of the measure window), and the R-based hysteresis
//     stampedes every channel into server-reply mode, paying an out-bound
//     WRITE per response exactly when the server has no cycles to spare.
//
// A final section crashes one of the two server threads in the middle of an
// overloaded window (fault plan from src/fault/) to show the two layers
// compose: shedding continues on the surviving thread, deadlines bound the
// damage on the dark one, and the crashed thread's backlog drains after
// restart.

#include "bench/common.h"

#include <cstdio>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/sim/engine.h"

namespace {

constexpr int kServerThreads = 2;
constexpr int kClientNodes = 4;
constexpr int kClients = 32;
constexpr uint32_t kResponseBytes = 32;
constexpr sim::Time kProcessNs = 1500;

const sim::Time kMeasureStart = sim::Millis(1);
const sim::Time kRunEnd = sim::Millis(7);

struct Outcome {
  double goodput_mops = 0;
  double shed_pct = 0;     // shed / offered-in-window
  rfp::Channel::Stats stats;
  bench::Tally calls;  // latency runs from each call's scheduled arrival
};

// Open loop (bench::DriveCalls): each channel's arrivals are staggered so
// the 32 drivers do not phase-lock. A call that overruns its interarrival
// makes the next request late; its latency is still charged from the
// *scheduled* arrival, so backlog is visible as latency. With a per-call
// deadline, a request whose deadline passed before it could even be issued
// is shed at the client, which lets the driver catch back up instead of
// dragging an ever-growing issue backlog behind it.
Outcome RunSweepPoint(double offered_mops, bool protect, bool crash) {
  sim::Engine engine;
  rfp::ServerOptions server_options;
  server_options.admission_control = protect;
  if (protect) {
    // This cluster runs 16 channels per thread at ~1.7 us per request, so a
    // fully pending sweep holds ~27 us of work: trip the detector well below
    // that and release it once the backlog is mostly drained.
    server_options.overload_hi_watermark_ns = sim::Micros(20);
    server_options.overload_lo_watermark_ns = sim::Micros(5);
  }
  bench::EchoCluster cluster(engine, {}, kClientNodes, kServerThreads, server_options);
  cluster.server.RegisterHandler(bench::kCallRpc, bench::ReplyHandler(kResponseBytes, kProcessNs));

  rfp::RfpOptions options;
  if (protect) {
    options.call_deadline_ns = sim::Micros(100);
    options.breaker_enabled = true;
  }
  cluster.Start(kClients, options);

  fault::FaultInjector injector(cluster.fabric);
  injector.BindServer(cluster.server_node.id(), &cluster.server);
  fault::FaultPlan plan;
  if (crash) {
    // One of the two workers goes dark for 1.5 ms mid-overload.
    plan.ServerCrash(sim::Millis(3), 0, /*thread=*/0, sim::Micros(1500));
  }
  injector.Arm(plan);

  bench::Load load;
  load.interarrival =
      static_cast<sim::Time>(static_cast<double>(kClients) / (offered_mops * 1e6) * 1e9);
  load.reply_bytes = kResponseBytes;
  load.measure_start = kMeasureStart;
  load.end = kRunEnd;
  cluster.Run(load);

  Outcome out;
  out.calls = cluster.Total();
  const uint64_t attempted = out.calls.completed + out.calls.shed + out.calls.failed;
  out.goodput_mops = out.calls.Mops(kRunEnd - kMeasureStart);
  out.shed_pct = attempted > 0 ? 100.0 * static_cast<double>(attempted - out.calls.completed) /
                                     static_cast<double>(attempted)
                               : 0;
  out.stats = cluster.ChannelStats();
  return out;
}

std::vector<std::string> Row(const std::string& config, double offered, const Outcome& out) {
  return {config,
          bench::Fmt(offered),
          bench::Fmt(out.goodput_mops),
          bench::Fmt(out.shed_pct, 1),
          bench::Fmt(out.calls.PercentileUs(0.50), 1),
          bench::Fmt(out.calls.PercentileUs(0.99), 1),
          bench::FmtInt(out.stats.busy_responses),
          bench::FmtInt(out.stats.breaker_opens),
          bench::FmtInt(out.stats.switches_to_reply),
          bench::FmtInt(out.calls.errors())};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);

  const std::vector<double> offered = {0.4, 0.8, 1.2, 1.6, 2.0, 2.4};

  bench::PrintTitle(
      "Extension: overload protection (32 B echo, open-loop; saturation ~1.1 Mops)");
  bench::PrintHeader({"config", "offered", "goodput", "shed%", "p50_us", "p99_us", "busy",
                      "brk_open", "switches", "errors"});
  double protected_peak = 0;
  for (double rate : offered) {
    const Outcome out = RunSweepPoint(rate, /*protect=*/true, /*crash=*/false);
    if (out.goodput_mops > protected_peak) {
      protected_peak = out.goodput_mops;
    }
    bench::PrintRow(Row("protected", rate, out));
  }
  for (double rate : offered) {
    const Outcome out = RunSweepPoint(rate, /*protect=*/false, /*crash=*/false);
    bench::PrintRow(Row("unprotected", rate, out));
  }

  bench::PrintTitle("Composition: thread 0 of 2 crashes 3.0-4.5 ms into a 2x-overloaded run");
  bench::PrintHeader({"config", "offered", "goodput", "shed%", "p50_us", "p99_us", "busy",
                      "brk_open", "switches", "errors"});
  const Outcome crash = RunSweepPoint(2.0, /*protect=*/true, /*crash=*/true);
  bench::PrintRow(Row("protected+crash", 2.0, crash));

  std::printf(
      "\nexpected: protected goodput plateaus near its peak (%.2f Mops here) once\n"
      "offered exceeds saturation, with p99 of admitted requests bounded by the\n"
      "100 us call deadline plus issue slack (latency is charged from the\n"
      "scheduled arrival); unprotected goodput is paid for with queueing delay\n"
      "that grows with the run (p99 a large fraction of the 6 ms window) and a\n"
      "stampede of switches to server-reply; the crash row keeps shedding and\n"
      "recovers without errors\n",
      protected_peak);
  return 0;
}
