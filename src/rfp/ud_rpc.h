// Datagram RPC over UD queue pairs — the HERD/FaSST-style design the paper
// contrasts RFP against (Section 5).
//
// Requests and responses travel as unreliable UD SENDs: no connection
// state, no ACKs, symmetric two-sided costs. The price is exactly what the
// paper describes: "message lost, reorder and duplication ... cannot be
// simply ignored" — so this client carries sequence numbers, retransmits on
// timeout, and filters duplicate replies; and the server burns out-bound
// issue capacity on every reply, so its throughput is bounded the same way
// server-reply is.
//
// Wire format (both directions):
//   [UdHeader: client_node u32 | client_qpn u32 | seq u32 | rpc_id u16 |
//    flags u16][payload]

#ifndef SRC_RFP_UD_RPC_H_
#define SRC_RFP_UD_RPC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

namespace rfp {

struct UdHeader {
  uint32_t client_node = 0;  // reply address
  uint32_t client_qpn = 0;
  uint32_t seq = 0;
  uint16_t rpc_id = 0;
  uint16_t flags = 0;
};
static_assert(sizeof(UdHeader) == 16, "UD header layout is part of the wire format");

struct UdRpcOptions {
  int recv_pool = 64;              // posted RECVs per QP
  uint32_t max_message_bytes = 8192 + 64;
  sim::Time client_poll_ns = 200;  // response poll cadence
  sim::Time retry_timeout_ns = 20'000;
  int max_retransmits = 10;
};

class UdRpcServer {
 public:
  // One UD QP (and one service actor) per thread.
  UdRpcServer(rdma::Fabric& fabric, rdma::Node& node, int num_threads,
              UdRpcOptions options = {});

  void RegisterHandler(uint16_t rpc_id, Handler handler);

  // Datagram address clients send to (round-robin by thread).
  rdma::AddressHandle address(int thread) const;
  int num_threads() const { return static_cast<int>(qps_.size()); }

  void Start();
  void Stop() { stop_ = true; }

  uint64_t requests_served() const { return requests_served_; }
  // Requests dropped because the recv pool was empty (burst overflow).
  uint64_t recv_overflows() const;
  // Requests dropped for an unknown rpc id. Wire input never kills a server
  // actor: the RECV is reposted and the client's retransmit timer decides.
  uint64_t malformed_requests() const { return malformed_requests_; }

 private:
  sim::Task<void> ServeLoop(int thread);
  void RepostRecv(int thread, uint64_t wr_id);

  rdma::Fabric& fabric_;
  rdma::Node& node_;
  UdRpcOptions options_;
  bool stop_ = false;
  bool started_ = false;
  uint64_t requests_served_ = 0;
  uint64_t malformed_requests_ = 0;
  std::unordered_map<uint16_t, Handler> handlers_;
  std::vector<rdma::QueuePair*> qps_;
  // One registered region per thread: [recv_pool slots][tx staging].
  std::vector<rdma::MemoryRegion*> regions_;
};

class UdRpcClient {
 public:
  struct Stats {
    uint64_t calls = 0;
    uint64_t sends = 0;        // includes retransmits
    uint64_t retransmits = 0;
    uint64_t duplicates = 0;   // late replies to already-completed seqs
    uint64_t failures = 0;     // calls that exhausted max_retransmits
  };

  UdRpcClient(rdma::Fabric& fabric, rdma::Node& node, rdma::AddressHandle server,
              UdRpcOptions options = {});

  // Returns the response payload size; throws after max_retransmits
  // timeouts (the datagram analogue of a broken connection).
  sim::Task<size_t> Call(uint16_t rpc_id, std::span<const std::byte> request,
                         std::span<std::byte> response);

  const Stats& stats() const { return stats_; }
  const sim::Histogram& latency() const { return latency_; }

 private:
  void RepostRecv(uint64_t wr_id);

  rdma::Fabric& fabric_;
  rdma::Node& node_;
  rdma::AddressHandle server_;
  UdRpcOptions options_;
  rdma::QueuePair* qp_;
  rdma::MemoryRegion* region_;  // [recv slots][tx staging]
  uint32_t next_seq_ = 0;
  Stats stats_;
  sim::Histogram latency_;
};

}  // namespace rfp

#endif  // SRC_RFP_UD_RPC_H_
