// Pooled-QP connection tier (docs/connections.md).
//
// The RDMAvisor observation: per-client RC connections make QP state and
// registered memory grow linearly with clients, so a million-client fabric
// needs the data plane multiplexed over shared resources. This tier serves
// M >> N logical clients through N server UD QPs:
//
//   * SRQ-style shared receive — all N QPs draw receive slots from one
//     shared, pool-backed slot arena (a hot QP drains more slots, exactly
//     what a hardware SRQ buys), so receive memory is sized for the node's
//     aggregate burst, not per client.
//   * Connection-id demux — each logical client holds a 24-bit cid assigned
//     at connect time and carried in the formerly-spare RequestHeader bits
//     (wire::PackPooledRequest); the server routes replies by cid entry, not
//     by QP, so QP count stays N however many clients connect.
//   * Setup fast path (the Swift argument: control plane must be fast too) —
//     connect is one datagram round trip against pre-registered pool memory;
//     no QP creation, no MR registration, no per-client server allocation
//     beyond one address-table entry.
//
// Requests dispatch through the owning RpcServer's handler table
// (RpcServer::FindHandler), so one registered handler serves dedicated
// channels and pooled clients alike. The transport is unreliable: clients
// carry a sequence tag, retransmit on timeout, and filter duplicate replies;
// the server executes every arrival (handlers are idempotent by the RFP
// contract). A pooled request carries no replication epoch (those bits hold
// the cid), so an epoch-gated rpc id (RpcServer::GateRpc) is never served
// here: it counts as a dropped request.
//
// Wire format:
//   request   [rfp::RequestHeader (16 B, cid in mode/slot/size bits)]
//             [rpc_id u16][body]
//   response  [rfp::ResponseHeader (8 B, seq echo)][payload]
// Control ids kRpcConnect / kRpcDisconnect ride the same format; connect's
// body is [client_node u32][client_qpn u32] (the reply address — cid 0 has
// no entry yet) and its response body is [cid u32].

#ifndef SRC_CONN_POOLED_H_
#define SRC_CONN_POOLED_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/mem/pool.h"
#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/rfp/ud_rpc.h"
#include "src/sim/poller.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

namespace conn {

// Reserved rpc ids of the connection-control plane. Applications own the low
// id space; anything >= 0xfff0 is the tier's.
constexpr uint16_t kRpcConnect = 0xfff0;
constexpr uint16_t kRpcDisconnect = 0xfff1;

// The tier's geometry, one for every server and client. Calls retransmit
// on rfp::kDatagramRetryTimeoutNs, at most rfp::kDatagramMaxRetransmits times.
constexpr int kPooledQps = 4;              // server UD QPs (the "N" of N QPs, M clients)
constexpr int kPooledRecvSlots = 256;      // shared receive slots across all server QPs
constexpr int kPooledClientRecvSlots = 8;  // posted RECVs per client QP
constexpr uint32_t kPooledMaxMessageBytes = 8192;  // request body or response payload

// The server side: N UD QPs + one shared receive-slot arena, dispatching
// into `rpc`'s handler table. Does not touch `rpc`'s channel sweep — the
// pooled path and dedicated channels serve concurrently from one handler
// registration.
class PooledServer {
 public:
  PooledServer(rdma::Fabric& fabric, rfp::RpcServer& rpc);

  // Flushes conn.pooled.* counters into the default metrics registry,
  // labeled {node}, and frees the slot arena back to the node pool.
  ~PooledServer();

  PooledServer(const PooledServer&) = delete;
  PooledServer& operator=(const PooledServer&) = delete;

  void Start();
  void Stop();

  int num_qps() const { return static_cast<int>(qps_.size()); }
  // Datagram address of QP `qp_index`, what clients send to.
  rdma::AddressHandle address(int qp_index) const;
  // Round-robin QP assignment for new clients.
  int PickQp() { return next_qp_++ % num_qps(); }

  rdma::Node& node() { return node_; }

  // Logical connections currently live (cid entries in the demux table).
  size_t live_connections() const { return clients_.size(); }
  uint64_t connects() const { return connects_; }
  uint64_t disconnects() const { return disconnects_; }
  uint64_t requests_served() const { return requests_served_; }
  // Requests dropped: unknown cid (stale/closed connection), malformed, or
  // for an unknown or epoch-gated rpc id.
  uint64_t dropped_requests() const { return dropped_requests_; }
  // Datagrams dropped because no receive slot was posted (burst overflow).
  uint64_t recv_overflows() const;

 private:
  struct ClientEntry {
    rdma::AddressHandle reply;  // where this cid's responses go
  };

  sim::Task<void> ServeLoop(int qp_index);
  // Posts free shared slots onto `qp_index` up to its fair-share target.
  // Called every loop iteration, so a QP that drains faster re-arms with
  // more of the shared pool — the SRQ effect.
  void TopUpRecv(int qp_index);
  // Returns a consumed slot to the shared free list, waking every parked
  // loop whose next TopUpRecv would take it.
  void FreeSlot(uint32_t slot);
  size_t rx_offset(uint32_t slot) const;
  size_t tx_offset(int qp_index) const;
  uint32_t AssignCid(const rdma::AddressHandle& reply);

  rdma::Fabric& fabric_;
  rfp::RpcServer& rpc_;
  rdma::Node& node_;
  bool stop_ = false;
  bool started_ = false;
  std::vector<rdma::QueuePair*> qps_;
  // One per ServeLoop: an idle loop parks until its CQ gets a completion, a
  // freed slot would top it up, or Stop().
  std::vector<std::unique_ptr<sim::Poller>> pollers_;
  std::shared_ptr<mem::Pool> pool_;
  // One pool span: [kPooledRecvSlots shared slots][one tx slot per QP]. Receive
  // slots are a shared free list; wr_id = slot index.
  mem::Span arena_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint32_t, ClientEntry> clients_;
  uint32_t next_cid_ = 0;
  int next_qp_ = 0;
  uint64_t connects_ = 0;
  uint64_t disconnects_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t dropped_requests_ = 0;
};

// One logical client endpoint. A single PooledClient (one UD QP, one pool
// span) can play many logical connections sequentially — Connect, calls,
// Disconnect, repeat — which is how the scale bench drives 10^6 logical
// clients through a handful of driver actors.
class PooledClient {
 public:
  // Datagram counters cover every exchange (Connect and Disconnect too);
  // `calls` counts Call only.
  struct Stats : rfp::DatagramStats {
    uint64_t connects = 0;
    uint64_t disconnects = 0;
  };

  PooledClient(rdma::Fabric& fabric, rdma::Node& node, PooledServer& server);

  // Flushes conn.pooled client counters and the connect-latency histogram
  // into the default metrics registry, labeled {client}, and frees the slot
  // span back to the node pool.
  ~PooledClient();

  PooledClient(const PooledClient&) = delete;
  PooledClient& operator=(const PooledClient&) = delete;

  // Obtains a connection id from the server — one datagram round trip, no
  // MR work (the setup fast path). Throws when already connected.
  sim::Task<void> Connect();

  // Releases the connection id (acknowledged). No-op when not connected.
  sim::Task<void> Disconnect();

  // Invokes `rpc_id` through the pooled path; returns the response payload
  // size. Throws std::runtime_error after rfp::kDatagramMaxRetransmits
  // timeouts, std::length_error when the reply does not fit `response`, and
  // std::logic_error when not connected.
  sim::Task<size_t> Call(uint16_t rpc_id, std::span<const std::byte> request,
                         std::span<std::byte> response);

  bool connected() const { return cid_ != 0; }
  uint32_t cid() const { return cid_; }
  const Stats& stats() const { return stats_; }
  const sim::Histogram& connect_latency() const { return connect_latency_; }

 private:
  size_t tx_off() const;
  // One request/response exchange under the current cid (rfp::DatagramCall:
  // retransmit + duplicate filter). The request bytes must already be staged
  // in the tx slot after the header.
  sim::Task<size_t> Transact(uint32_t body_bytes, std::span<std::byte> response);

  rdma::Fabric& fabric_;
  rdma::Node& node_;
  PooledServer& server_;
  rdma::AddressHandle server_addr_;
  std::shared_ptr<mem::Pool> pool_;
  mem::Span span_;  // [kPooledClientRecvSlots slots][tx slot]
  rfp::DatagramSlots slots_;  // the client QP's receive slots in span_
  uint32_t cid_ = 0;
  uint16_t next_seq_ = 0;
  Stats stats_;
  sim::Histogram connect_latency_;
};

}  // namespace conn

#endif  // SRC_CONN_POOLED_H_
