// The four benchmark workloads: what each cluster looks like and the
// closed-loop drivers that load it.
//
// A Cluster is one set-up instance of a workload: an engine, a fabric, one
// server node and its clients, built only through the library's public API
// (rdma::Fabric, rfp::RpcServer/RpcClient/Channel, kv::JakiroServer/
// JakiroClient, workload::Generator, conn::Connector). Every RNG the run uses
// is seeded from the benchmark seed: fabric jitter, generator streams,
// echo_phased's phase schedule, ServerOptions::straggler_seed and
// RfpOptions::breaker_seed.
//
// Drivers check every returned value and keep their own tallies; the
// library's process-wide metrics registry is never read.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/conn/connector.h"
#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/workload/ycsb.h"

namespace perfbench {

enum class WorkloadId { kKvSmallGet, kKvMixedPut, kEchoPipelined, kEchoPhased };

// Parses a workload name; false for an unknown one.
bool ParseWorkload(std::string_view name, WorkloadId* id);
const char* WorkloadName(WorkloadId id);

// Virtual time one wall second of --seconds buys on the reference machine
// (see README.md). The simulated run is a function of (seed, seconds) only,
// so its outputs are bit-identical at a fixed seed however fast the host is.
sim::Time VirtualPerWallSecond(WorkloadId id);

// One client's tally over the whole run.
struct CallTally {
  uint64_t finished = 0;  // calls that returned or threw
  uint64_t failed = 0;    // threw, came back missing or the wrong size, or wrong bytes
  std::vector<int64_t> window_latency_ns;  // correct calls completed in the measure window
  int64_t gen_ns = 0;    // traced: host ns in Generator::Next + MakeKey
  int64_t value_ns = 0;  // traced: host ns in FillValue + CheckValue
};

// Virtual-time span of one call, from issue to completion (traced runs).
// call_id is (replica << 56) | (client << 40) | per-client sequence number. Written out
// verbatim as 24-byte records.
struct CallSpan {
  uint64_t call_id = 0;
  int64_t issue_ns = 0;
  uint32_t latency_ns = 0;
  uint8_t kind = 0;  // kv: 0 GET / 1 PUT; echo_phased: 0 short / 1 long process time
  uint8_t ok = 0;
};

struct ClusterParams {
  WorkloadId workload = WorkloadId::kKvSmallGet;
  uint64_t seed = 1;
  uint32_t replica = 0;  // index of this cluster within its run
  sim::Time warmup_end = 0;
  sim::Time end = 0;
  bool trace = false;
  // Verification self-test: > 0 corrupts every n-th stored value (kv) or
  // every n-th echo response, so the checks must report failures.
  uint64_t corrupt_every = 0;
};

// Host wall time of one set-up, by phase.
struct SetupTimes {
  double fabric_s = 0;   // engine, fabric, nodes
  double server_s = 0;   // server / store construction
  double preload_s = 0;  // kv preload loop
  double bringup_s = 0;  // client channels through conn::Connector
  double total_s = 0;
};

struct Cluster {
  explicit Cluster(const ClusterParams& p) : params(p) {}
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  rfp::RpcServer& rpc() { return jakiro != nullptr ? jakiro->rpc() : *echo_server; }

  ClusterParams params;
  // Declaration order is destruction order in reverse: clients and leases
  // go before the connector, the servers, the fabric and the engine.
  sim::Engine engine;
  std::unique_ptr<rdma::Fabric> fabric;
  rdma::Node* server_node = nullptr;
  std::vector<rdma::Node*> client_nodes;
  std::unique_ptr<kv::JakiroServer> jakiro;
  std::unique_ptr<rfp::RpcServer> echo_server;
  conn::Connector connector;
  std::vector<std::unique_ptr<kv::JakiroClient>> kv_clients;
  std::vector<conn::ChannelLease> leases;
  std::vector<rfp::Channel*> channels;  // every client channel, for stats

  workload::WorkloadSpec spec;          // kv workloads
  std::vector<uint16_t> written_sizes;  // kv: bit b set = a 2^b-byte value was written
  uint64_t echo_served = 0;             // echo handler invocations
  // Echo: process time the handler asked for inside the measure window, per
  // server thread (a lower bound on a legacy worker's busy time).
  std::vector<int64_t> handler_busy_ns;
  std::vector<CallTally> tallies;       // one per client
  std::vector<CallSpan> spans;          // traced runs only
};

// Builds one instance of the workload up to, not including, the first
// simulated event, timing each set-up phase into `times`.
std::unique_ptr<Cluster> BuildCluster(const ClusterParams& params, SetupTimes* times);

// Spawns the drivers and starts the server: from here on the engine runs.
void StartCluster(Cluster& cluster);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
