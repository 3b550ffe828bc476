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
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace {

constexpr int kServerThreads = 2;
constexpr int kClientNodes = 4;
constexpr int kClients = 32;
constexpr uint32_t kResponseBytes = 32;
constexpr sim::Time kProcessNs = 1500;

const sim::Time kMeasureStart = sim::Millis(1);
const sim::Time kRunEnd = sim::Millis(7);

std::byte ExpectedByte(std::span<const std::byte> req, size_t i) {
  return req[i % req.size()] ^ static_cast<std::byte>(static_cast<uint8_t>(i * 29 + 3));
}

struct DriverCounts {
  uint64_t completed = 0;   // calls finished inside the measure window
  uint64_t shed = 0;        // DeadlineExceeded (server shed or deadline hit)
  uint64_t failed = 0;      // any other call failure
  uint64_t mismatches = 0;
  sim::Histogram latency;   // scheduled arrival -> completion, ns
};

// Open-loop driver: arrivals at fixed interarrival times (staggered per
// channel so the 32 drivers do not phase-lock). A call that overruns its
// interarrival makes the next request late; its latency is still charged
// from the *scheduled* arrival, so backlog is visible as latency. When a
// per-call deadline is configured, a request whose deadline already passed
// before it could even be issued (the channel was busy with earlier calls)
// is dead on arrival: it is shed at the client without touching the wire,
// which is what lets the driver catch back up instead of dragging an
// ever-growing issue backlog behind it.
sim::Task<void> Driver(sim::Engine& eng, rfp::RpcClient* client, sim::Time interarrival,
                       sim::Time first, sim::Time deadline, DriverCounts* counts) {
  std::vector<std::byte> req(8);
  std::vector<std::byte> resp(256);
  uint64_t n = 0;
  sim::Time scheduled = first;
  while (scheduled < kRunEnd) {
    if (eng.now() < scheduled) {
      co_await eng.Sleep(scheduled - eng.now());
    }
    if (deadline > 0 && eng.now() >= scheduled + deadline) {
      if (scheduled >= kMeasureStart) {
        ++counts->shed;
      }
      scheduled += interarrival;
      continue;
    }
    ++n;
    for (size_t i = 0; i < req.size(); ++i) {
      req[i] = static_cast<std::byte>(static_cast<uint8_t>(n >> (8 * i)));
    }
    const bool measured = scheduled >= kMeasureStart;
    try {
      const size_t got = co_await client->Call(1, req, resp);
      if (measured) {
        ++counts->completed;
        counts->latency.Record(eng.now() - scheduled);
      }
      if (got != kResponseBytes) {
        ++counts->mismatches;
      } else {
        for (size_t i = 0; i < kResponseBytes; ++i) {
          if (resp[i] != ExpectedByte(req, i)) {
            ++counts->mismatches;
            break;
          }
        }
      }
    } catch (const rfp::DeadlineExceeded&) {
      if (measured) {
        ++counts->shed;
      }
    } catch (const std::exception&) {
      if (measured) {
        ++counts->failed;
      }
    }
    scheduled += interarrival;
  }
}

struct Outcome {
  double goodput_mops = 0;
  double shed_pct = 0;     // shed / offered-in-window
  double p50_us = 0;
  double p99_us = 0;       // of admitted (completed) requests
  rfp::Channel::Stats stats;
  uint64_t server_shed = 0;
  uint64_t overload_enters = 0;
  uint64_t mismatches = 0;
  uint64_t failed = 0;
  uint64_t crashes = 0;
};

Outcome RunSweepPoint(double offered_mops, bool protect, bool crash) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = bench::SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  std::vector<rdma::Node*> client_nodes;
  for (int n = 0; n < kClientNodes; ++n) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }

  rfp::ServerOptions server_options;
  server_options.admission_control = protect;
  if (protect) {
    // This cluster runs 16 channels per thread at ~1.7 us per request, so a
    // fully pending sweep holds ~27 us of work: trip the detector well below
    // that and release it once the backlog is mostly drained.
    server_options.overload_hi_watermark_ns = sim::Micros(20);
    server_options.overload_lo_watermark_ns = sim::Micros(5);
  }
  rfp::RpcServer server(fabric, server_node, kServerThreads, server_options);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> rfp::HandlerResult {
    for (size_t i = 0; i < kResponseBytes; ++i) {
      resp[i] = ExpectedByte(req, i);
    }
    return rfp::HandlerResult{kResponseBytes, kProcessNs};
  });

  rfp::RfpOptions options;
  if (protect) {
    options.call_deadline_ns = sim::Micros(100);
    options.breaker_enabled = true;
  }

  std::vector<rfp::Channel*> channels;
  std::vector<std::unique_ptr<rfp::RpcClient>> stubs;
  std::vector<DriverCounts> counts(kClients);
  for (int t = 0; t < kClients; ++t) {
    rfp::Channel* channel = server.AcceptChannel(
        *client_nodes[static_cast<size_t>(t % kClientNodes)], options, t % kServerThreads);
    channels.push_back(channel);
    stubs.push_back(std::make_unique<rfp::RpcClient>(channel));
  }
  server.Start();

  fault::FaultInjector injector(fabric);
  injector.BindServer(server_node.id(), &server);
  fault::FaultPlan plan;
  if (crash) {
    // One of the two workers goes dark for 1.5 ms mid-overload.
    plan.ServerCrash(sim::Millis(3), 0, /*thread=*/0, sim::Micros(1500));
  }
  injector.Arm(plan);

  const sim::Time interarrival =
      static_cast<sim::Time>(static_cast<double>(kClients) / (offered_mops * 1e6) * 1e9);
  for (int t = 0; t < kClients; ++t) {
    const sim::Time first = interarrival * t / kClients;
    engine.Spawn(Driver(engine, stubs[static_cast<size_t>(t)].get(), interarrival, first,
                        options.call_deadline_ns, &counts[static_cast<size_t>(t)]));
  }
  engine.RunUntil(kRunEnd);
  server.Stop();

  Outcome out;
  sim::Histogram latency;
  uint64_t completed = 0;
  uint64_t attempted = 0;
  for (const DriverCounts& c : counts) {
    completed += c.completed;
    attempted += c.completed + c.shed + c.failed;
    out.mismatches += c.mismatches;
    out.failed += c.failed;
    latency.Merge(c.latency);
  }
  const sim::Time window = kRunEnd - kMeasureStart;
  out.goodput_mops = static_cast<double>(completed) / sim::ToSeconds(window) / 1e6;
  out.shed_pct =
      attempted > 0
          ? 100.0 * static_cast<double>(attempted - completed) / static_cast<double>(attempted)
          : 0;
  out.p50_us = static_cast<double>(latency.Percentile(0.50)) / 1000.0;
  out.p99_us = static_cast<double>(latency.Percentile(0.99)) / 1000.0;
  for (rfp::Channel* channel : channels) {
    out.stats.Merge(channel->stats());
  }
  out.server_shed = server.requests_shed_admission() + server.requests_shed_deadline();
  out.overload_enters = server.overload_enters();
  out.crashes = server.thread_crashes();
  return out;
}

std::vector<std::string> Row(const std::string& config, double offered, const Outcome& out) {
  return {config,
          bench::Fmt(offered),
          bench::Fmt(out.goodput_mops),
          bench::Fmt(out.shed_pct, 1),
          bench::Fmt(out.p50_us, 1),
          bench::Fmt(out.p99_us, 1),
          bench::FmtInt(out.stats.busy_responses),
          bench::FmtInt(out.stats.breaker_opens),
          bench::FmtInt(out.stats.switches_to_reply),
          bench::FmtInt(out.mismatches + out.failed)};
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
