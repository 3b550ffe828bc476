// Ablation: what if the RNIC had no in/out-bound asymmetry?
//
// RFP's advantage over server-reply rests on observation 1 (in-bound ops
// are ~5x cheaper to serve than out-bound ops are to issue). Configuring a
// symmetric NIC (out-bound issue as cheap as in-bound serving) should make
// the Jakiro/ServerReply gap collapse — isolating the root cause.

#include "bench/common.h"

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  bench::PrintTitle("Ablation: RFP gain with and without the in/out-bound asymmetry");
  bench::PrintHeader({"nic", "jakiro", "server-reply", "gain"});

  for (bool symmetric : {false, true}) {
    rdma::FabricConfig fabric;
    if (symmetric) {
      // Out-bound issue as fast as in-bound serving; everything else equal.
      fabric.nic.outbound_issue_ns = rdma::kInboundMinGapNs;
      fabric.nic.outbound_write_thread_factor = 0.0;
    }
    double mops[2] = {0, 0};
    int i = 0;
    for (auto system : {bench::KvSystem::kJakiro, bench::KvSystem::kServerReply}) {
      bench::KvRunConfig config;
      config.system = system;
      config.workload = bench::PaperWorkload();
      config.fabric = fabric;
      mops[i++] = bench::RunKv(config).mops;
    }
    bench::PrintRow({symmetric ? "symmetric" : "asymmetric", bench::Fmt(mops[0]),
                     bench::Fmt(mops[1]), bench::Fmt(mops[0] / mops[1], 2) + "x"});
  }
  std::printf("\nexpected: ~2.7x gain on the real (asymmetric) NIC, ~1x when symmetric —\n"
              "the asymmetry is the root cause of RFP's win over server-reply\n");
  return 0;
}
