// Extension: RFP throughput before / during / after injected faults.
//
// One echo cluster (1 server x 4 threads, 8 clients on 2 nodes) runs with
// the channel fault-tolerance options enabled (fetch timeout + backoff,
// response checksums, transparent reconnect). For each fault class of
// src/fault/ a scripted FaultPlan disturbs the middle 2 ms of the run, and
// the table reports throughput in the clean lead-in, the fault window, and
// the recovery tail, plus the recovery events the channels booked.
//
// Expected shape (asserted by tests/fault/fault_matrix_test.cc and the
// Fault tolerance rows of tests/claims/claims.py):
//   * every fault class recovers to within 1 % of the pre-fault rate;
//   * a server-thread crash degrades throughput for the crash window
//     (1 of 4 workers dark) to 0.6-0.9 of it without deadlocking — the
//     surviving threads keep serving, and the crashed thread's pending
//     requests complete after restart;
//   * every response that completes is bit-correct: bench::DriveCalls checks
//     each reply and the mismatches column counts failures (always 0).

#include "bench/common.h"

#include <cstdio>
#include <functional>
#include <vector>

#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/rfp/channel.h"
#include "src/sim/engine.h"

namespace {

constexpr int kServerThreads = 4;
constexpr int kClientNodes = 2;
constexpr int kClientThreads = 8;
constexpr uint32_t kResponseBytes = 32;

// Phase boundaries: warmup, clean baseline, fault window, recovery tail.
const sim::Time kBaselineStart = sim::Millis(1);
const sim::Time kFaultStart = sim::Millis(3);
const sim::Time kFaultEnd = sim::Millis(5);
const sim::Time kRunEnd = sim::Millis(9);

struct Outcome {
  double before_mops = 0;
  double during_mops = 0;
  double after_mops = 0;
  rfp::Channel::Stats stats;
  uint64_t mismatches = 0;
};

// Runs one cluster with `build_plan` supplying the fault schedule once the
// channels exist (corruption events need their rkeys). Each driver counts
// every call it completes; the phase rates come from the running total at
// the phase boundaries.
Outcome RunClass(
    const std::function<void(fault::FaultPlan&, const std::vector<rfp::Channel*>&)>& build_plan) {
  sim::Engine engine;
  bench::EchoCluster cluster(engine, {}, kClientNodes, kServerThreads);
  cluster.server.RegisterHandler(bench::kCallRpc,
                                 bench::ReplyHandler(kResponseBytes, sim::Nanos(1000)));

  rfp::RfpOptions options;
  options.fetch_timeout_ns = sim::Micros(150);
  options.fetch_backoff_initial_ns = sim::Micros(2);
  options.checksum_responses = true;
  cluster.Start(kClientThreads, options);

  fault::FaultInjector injector(cluster.fabric);
  injector.BindServer(cluster.server_node.id(), &cluster.server);
  fault::FaultPlan plan;
  build_plan(plan, cluster.channels);
  injector.Arm(plan);

  bench::Load load;
  load.reply_bytes = kResponseBytes;
  load.end = kRunEnd;
  uint64_t at_baseline = 0;
  uint64_t at_fault = 0;
  uint64_t at_recovery = 0;
  engine.ScheduleAt(kBaselineStart, [&] { at_baseline = cluster.Total().completed; });
  engine.ScheduleAt(kFaultStart, [&] { at_fault = cluster.Total().completed; });
  engine.ScheduleAt(kFaultEnd, [&] { at_recovery = cluster.Total().completed; });
  cluster.Run(load);

  const bench::Tally total = cluster.Total();
  Outcome out;
  out.before_mops = bench::Mops(at_fault - at_baseline, kFaultStart - kBaselineStart);
  out.during_mops = bench::Mops(at_recovery - at_fault, kFaultEnd - kFaultStart);
  out.after_mops = bench::Mops(total.completed - at_recovery, kRunEnd - kFaultEnd);
  out.stats = cluster.ChannelStats();
  out.mismatches = total.errors();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);

  using Builder = std::function<void(fault::FaultPlan&, const std::vector<rfp::Channel*>&)>;
  struct Class {
    const char* name;
    Builder build;
  };
  const sim::Time window = kFaultEnd - kFaultStart;
  const std::vector<Class> classes = {
      {"none", [](fault::FaultPlan&, const std::vector<rfp::Channel*>&) {}},
      {"nic_stall",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         // Four 150 us in-bound stalls of the server NIC across the window.
         for (int i = 0; i < 4; ++i) {
           plan.NicStall(kFaultStart + i * (window / 4), 0, /*inbound=*/true, sim::Micros(150));
         }
       }},
      {"nic_degrade",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         plan.NicDegrade(kFaultStart, 0, /*inbound=*/true, /*factor=*/6.0, window);
       }},
      {"link_burst",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         for (uint32_t client = 1; client <= kClientNodes; ++client) {
           plan.LinkBurst(kFaultStart, 0, client, /*loss_prob=*/0.3,
                          /*extra_delay_ns=*/sim::Micros(2), window);
         }
       }},
      {"server_crash",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         plan.ServerCrash(kFaultStart, 0, /*thread=*/0, window);
       }},
      {"qp_error",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>&) {
         for (int i = 0; i < 3; ++i) {
           for (uint32_t client = 1; client <= kClientNodes; ++client) {
             plan.QpError(kFaultStart + i * (window / 3), 0, client);
           }
         }
       }},
      {"corrupt_region",
       [&](fault::FaultPlan& plan, const std::vector<rfp::Channel*>& channels) {
         // Flip response-payload bytes of every channel every 100 us.
         for (int i = 0; i < 20; ++i) {
           for (size_t c = 0; c < channels.size(); ++c) {
             plan.CorruptRegion(kFaultStart + i * (window / 20), channels[c]->server_rkey(),
                                channels[c]->response_offset() + rfp::kHeaderBytes, 16,
                                /*seed=*/static_cast<uint64_t>(i) * 100 + c);
           }
         }
       }},
  };

  bench::PrintTitle("Extension: fault tolerance (32 B echo; fault window 3-5 ms)");
  bench::PrintHeader({"fault", "before_mops", "during_mops", "after_mops", "after/before",
                      "timeouts", "reconnects", "reissues", "corrupt", "mismatches"});
  for (const Class& cls : classes) {
    const Outcome out = RunClass(cls.build);
    bench::PrintRow({cls.name, bench::Fmt(out.before_mops), bench::Fmt(out.during_mops),
                     bench::Fmt(out.after_mops),
                     bench::Fmt(out.before_mops > 0 ? out.after_mops / out.before_mops : 0, 3),
                     bench::FmtInt(out.stats.fetch_timeouts), bench::FmtInt(out.stats.reconnects),
                     bench::FmtInt(out.stats.reissues), bench::FmtInt(out.stats.corrupt_fetches),
                     bench::FmtInt(out.mismatches)});
  }
  std::printf(
      "\nexpected: after/before ~1.0 for every transient fault (the channels detect,\n"
      "recover, and resume the pre-fault rate); during the server-thread crash the\n"
      "cluster degrades to roughly 3/4 capacity but never deadlocks, and all rows\n"
      "report 0 payload mismatches\n");
  return 0;
}
