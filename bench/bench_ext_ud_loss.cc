// Extension: UD datagram RPC (HERD/FaSST-style) vs RFP under packet loss.
//
// Section 5: UD "may achieve higher performance than RC-based solutions ...
// but it is at a cost of requiring the applications to handle many subtle
// problems, such as message lost, reorder and duplication. Considering the
// fatal outcome, even if such subtle problems rarely happen in the
// real-world, they cannot be simply ignored." This bench quantifies both
// halves: UD's clean-network behaviour, and what loss does to it while
// RC-based RFP is unaffected.
//
// The UD side is the pooled connection tier (src/conn/pooled.h): datagram
// requests and replies, sequence tags, retransmit on timeout, duplicate
// filtering. Each client connects before the warm-up ends, so the measured
// window holds calls only. The server runs the tier's kPooledQps = 4 UD QPs.
// More would not help: every reply is an out-bound SEND through the server
// NIC's one issue pipeline, which charges each SEND rdma::kTwoSidedTxNs
// (474 ns), so four QP loops already keep it saturated near 2.11 MOPS. That
// equals Fig 3's out-bound WRITE envelope by calibration only: the two-sided
// cost is its own constant, so the symmetric-NIC profile of
// bench_ablation_asymmetry_off would leave this bench where it is. The
// separate 8-QP UD server this bench ran before read 2.08 MOPS on a clean
// network, these four QPs 2.10.

#include "bench/common.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "src/conn/pooled.h"
#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"

namespace {

struct UdOutcome {
  double mops = 0;
  double mean_us = 0;
  double p99_us = 0;
  uint64_t retransmits = 0;
};

UdOutcome RunUd(double loss) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = bench::SeedOr(fc.seed);
  fc.unreliable_loss_prob = loss;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rfp::RpcServer rpc(fabric, server_node, conn::kPooledQps);
  rpc.RegisterHandler(bench::kCallRpc, bench::ReplyHandler(32, sim::Nanos(400)));
  conn::PooledServer server(fabric, rpc);
  server.Start();

  const int kClients = 35;
  const int kNodes = 7;
  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  bench::Load load;
  load.request_bytes = 1;
  load.measure_start = sim::Millis(2);
  load.end = sim::Millis(8);
  std::vector<std::unique_ptr<conn::PooledClient>> clients;
  std::vector<bench::Tally> tallies(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.push_back(std::make_unique<conn::PooledClient>(
        fabric, *nodes[static_cast<size_t>(t % kNodes)], server));
    engine.Spawn(bench::DriveCalls(engine, clients.back().get(), load,
                                   &tallies[static_cast<size_t>(t)]));
  }
  engine.RunUntil(load.end);
  server.Stop();

  UdOutcome outcome;
  bench::Tally total;
  for (int t = 0; t < kClients; ++t) {
    total.Merge(tallies[static_cast<size_t>(t)]);
    outcome.retransmits += clients[static_cast<size_t>(t)]->stats().retransmits;
  }
  if (total.errors() > 0) {
    throw std::runtime_error("ud_loss: a datagram call failed or returned a wrong reply");
  }
  outcome.mops = total.Mops(load.end - load.measure_start);
  outcome.mean_us = total.latency.mean() / 1000.0;
  outcome.p99_us = total.PercentileUs(0.99);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  // RFP reference on the same task (RC is loss-free by transport contract).
  bench::EchoRunConfig rc;
  rc.process_ns = sim::Nanos(400);
  rc.result_size = 32;
  const bench::EchoRunResult rfp = bench::RunEcho(rc);

  bench::PrintTitle("Extension: UD datagram RPC vs RFP under packet loss (32 B echo)");
  bench::PrintHeader({"loss", "ud_mops", "ud_mean_us", "ud_p99_us", "retransmits", "rfp_mops"});
  for (double loss : {0.0, 1e-5, 1e-3, 1e-2, 5e-2}) {
    const UdOutcome ud = RunUd(loss);
    char label[32];
    std::snprintf(label, sizeof(label), "%.0e", loss);
    bench::PrintRow({loss == 0.0 ? "0" : label, bench::Fmt(ud.mops), bench::Fmt(ud.mean_us),
                     bench::Fmt(ud.p99_us), bench::FmtInt(ud.retransmits),
                     bench::Fmt(rfp.mops)});
  }
  std::printf("\nexpected: UD matches server-reply-class throughput on a clean network (its\n"
              "replies still pay the server's out-bound cost) and keeps working under loss —\n"
              "but every lost packet costs a full retransmit timeout, exploding the tail,\n"
              "while RC-based RFP is untouched at any loss rate\n");
  return 0;
}
