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
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/sim/poller.h"
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

// Posted RECVs per UD QP: per server thread, and per client.
constexpr int kUdRecvPool = 64;
// Largest request or response payload one datagram carries.
constexpr uint32_t kUdMaxMessageBytes = 8192 + 64;

// ---- The datagram client loop (shared with conn::PooledClient) ---------------

// Retransmit timer and bound of one datagram call, and the poll cadence of
// an idle datagram loop (server QP loops and clients awaiting a reply).
constexpr sim::Time kDatagramRetryTimeoutNs = 20'000;
constexpr int kDatagramMaxRetransmits = 10;
constexpr sim::Time kDatagramPollNs = 200;

// A datagram client's counters.
struct DatagramStats {
  uint64_t calls = 0;
  uint64_t sends = 0;        // includes retransmits
  uint64_t retransmits = 0;
  uint64_t duplicates = 0;   // replies that matched no call
  uint64_t failures = 0;     // calls that exhausted kDatagramMaxRetransmits
};

// A client UD QP's receive slots: RECV wr_id i lands at offset(i) of `mr`.
struct DatagramSlots {
  rdma::QueuePair* qp = nullptr;
  rdma::MemoryRegion* mr = nullptr;
  size_t base = 0;
  size_t slot_bytes = 0;

  size_t offset(uint64_t wr_id) const { return base + static_cast<size_t>(wr_id) * slot_bytes; }
  void PostRecv(uint64_t wr_id) const {
    qp->PostRecv(wr_id, *mr, offset(wr_id), static_cast<uint32_t>(slot_bytes));
  }
};

// One datagram call: sends the `wire_bytes` staged at `tx` of `slots.mr` to
// `to`, and again every kDatagramRetryTimeoutNs without a reply, and returns
// the payload size of the first arrival whose ReplyHeader echoes `seq`,
// copied into `response`. Every arrival's RECV is reposted; one that is not
// that reply (a failed receive, a runt shorter than ReplyHeader whose slot
// still holds stale bytes, another call's seq) counts in stats.duplicates.
// Throws std::runtime_error after kDatagramMaxRetransmits retransmits and
// std::length_error when the reply does not fit `response`, each message
// prefixed with `what`.
template <typename ReplyHeader>
sim::Task<size_t> DatagramCall(sim::Engine& engine, DatagramSlots slots, rdma::AddressHandle to,
                               size_t tx, uint32_t wire_bytes, decltype(ReplyHeader::seq) seq,
                               std::span<std::byte> response, DatagramStats& stats,
                               const char* what) {
  int transmits = 0;
  sim::Time deadline = 0;
  // Between a response landing and the retransmit deadline every poll finds
  // an empty CQ, so the loop parks until one of them.
  sim::Poller poller(engine);
  while (true) {
    if (transmits == 0 || engine.now() >= deadline) {
      if (transmits > kDatagramMaxRetransmits) {
        ++stats.failures;
        throw std::runtime_error(std::string(what) + ": call timed out after retransmits");
      }
      if (transmits > 0) {
        ++stats.retransmits;
      }
      ++transmits;
      ++stats.sends;
      co_await slots.qp->SendTo(to, *slots.mr, tx, wire_bytes);
      deadline = engine.now() + kDatagramRetryTimeoutNs;
    }
    while (auto wc = slots.qp->recv_cq()->Poll()) {
      const size_t rx = slots.offset(wc->wr_id);
      const bool match = wc->ok() && wc->byte_len >= sizeof(ReplyHeader) &&
                         slots.mr->Load<ReplyHeader>(rx).seq == seq;
      const size_t payload = match ? wc->byte_len - sizeof(ReplyHeader) : 0;
      const bool fits = payload <= response.size();
      if (match && fits) {
        slots.mr->ReadBytes(rx + sizeof(ReplyHeader), response.subspan(0, payload));
      }
      slots.PostRecv(wc->wr_id);
      if (match) {
        if (!fits) {
          throw std::length_error(std::string(what) + ": response larger than output buffer");
        }
        co_return payload;
      }
      ++stats.duplicates;
    }
    slots.qp->recv_cq()->Watch(&poller);
    co_await poller.Park(kDatagramPollNs, deadline);
    slots.qp->recv_cq()->Unwatch(&poller);
  }
}

class UdRpcServer {
 public:
  // One UD QP (and one service actor) per thread.
  UdRpcServer(rdma::Fabric& fabric, rdma::Node& node, int num_threads);
  ~UdRpcServer();

  UdRpcServer(const UdRpcServer&) = delete;
  UdRpcServer& operator=(const UdRpcServer&) = delete;

  void RegisterHandler(uint16_t rpc_id, Handler handler);

  // Datagram address clients send to (round-robin by thread).
  rdma::AddressHandle address(int thread) const;
  int num_threads() const { return static_cast<int>(qps_.size()); }

  void Start();
  void Stop();

  uint64_t requests_served() const { return requests_served_; }
  // Requests dropped because the recv pool was empty (burst overflow).
  uint64_t recv_overflows() const;
  // Requests dropped as malformed (unknown rpc id, runt or oversized
  // datagram). Wire input never kills a server actor: the RECV is reposted
  // and the client's retransmit timer decides.
  uint64_t malformed_requests() const { return malformed_requests_; }

 private:
  sim::Task<void> ServeLoop(int thread);
  void RepostRecv(int thread, uint64_t wr_id);

  rdma::Fabric& fabric_;
  rdma::Node& node_;
  bool stop_ = false;
  bool started_ = false;
  uint64_t requests_served_ = 0;
  uint64_t malformed_requests_ = 0;
  std::unordered_map<uint16_t, Handler> handlers_;
  std::vector<rdma::QueuePair*> qps_;
  // One per ServeLoop: an idle loop parks until its CQ gets a completion or
  // Stop().
  std::vector<std::unique_ptr<sim::Poller>> pollers_;
  // One registered region per thread: [kUdRecvPool slots][tx staging].
  std::vector<rdma::MemoryRegion*> regions_;
};

class UdRpcClient {
 public:
  using Stats = DatagramStats;

  UdRpcClient(rdma::Fabric& fabric, rdma::Node& node, rdma::AddressHandle server);

  // Returns the response payload size. Throws std::runtime_error after
  // kDatagramMaxRetransmits timeouts (the datagram analogue of a broken
  // connection), std::length_error when the reply does not fit `response`.
  sim::Task<size_t> Call(uint16_t rpc_id, std::span<const std::byte> request,
                         std::span<std::byte> response);

  const Stats& stats() const { return stats_; }
  const sim::Histogram& latency() const { return latency_; }

 private:
  rdma::Fabric& fabric_;
  rdma::Node& node_;
  rdma::AddressHandle server_;
  DatagramSlots slots_;  // [kUdRecvPool recv slots][tx staging], one region
  uint32_t next_seq_ = 0;
  Stats stats_;
  sim::Histogram latency_;
};

}  // namespace rfp

#endif  // SRC_RFP_UD_RPC_H_
