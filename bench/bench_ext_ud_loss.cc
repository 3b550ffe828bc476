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
// NIC's one issue pipeline, and four QP loops already keep it saturated at
// its ~2.11 MOPS envelope (Fig 3). The separate 8-QP UD server this bench
// ran before read 2.08 MOPS on a clean network, these four QPs 2.10.

#include "bench/common.h"

#include <memory>

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
  fc.unreliable_loss_prob = loss;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rfp::RpcServer rpc(fabric, server_node, conn::kPooledQps);
  rpc.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte>,
                            std::span<std::byte>) -> rfp::HandlerResult {
    return rfp::HandlerResult{32, sim::Nanos(400)};
  });
  conn::PooledServer server(fabric, rpc);
  server.Start();

  const int kClients = 35;
  const int kNodes = 7;
  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  std::vector<std::unique_ptr<conn::PooledClient>> clients;
  std::vector<uint64_t> ops(kClients, 0);
  std::vector<sim::Histogram> lats(kClients);
  const sim::Time warmup = sim::Millis(2);
  const sim::Time end = sim::Millis(8);
  for (int t = 0; t < kClients; ++t) {
    clients.push_back(std::make_unique<conn::PooledClient>(
        fabric, *nodes[static_cast<size_t>(t % kNodes)], server));
    engine.Spawn([](sim::Engine& eng, conn::PooledClient* c, sim::Time w, sim::Time e,
                    uint64_t* count, sim::Histogram* lat) -> sim::Task<void> {
      std::vector<std::byte> req(1);
      std::vector<std::byte> resp(256);
      co_await c->Connect();
      while (eng.now() < e) {
        const sim::Time start = eng.now();
        co_await c->Call(1, req, resp);
        if (start >= w && eng.now() <= e) {
          ++*count;
          lat->Record(eng.now() - start);
        }
      }
    }(engine, clients.back().get(), warmup, end, &ops[static_cast<size_t>(t)],
      &lats[static_cast<size_t>(t)]));
  }
  engine.RunUntil(end);
  server.Stop();

  UdOutcome outcome;
  uint64_t total = 0;
  sim::Histogram latency;
  for (int t = 0; t < kClients; ++t) {
    total += ops[static_cast<size_t>(t)];
    latency.Merge(lats[static_cast<size_t>(t)]);
    outcome.retransmits += clients[static_cast<size_t>(t)]->stats().retransmits;
  }
  outcome.mops = static_cast<double>(total) / sim::ToSeconds(end - warmup) / 1e6;
  outcome.mean_us = latency.mean() / 1000.0;
  outcome.p99_us = static_cast<double>(latency.Percentile(0.99)) / 1000.0;
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
