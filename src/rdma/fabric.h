// The simulated cluster: nodes, wire model, QP wiring, and the remote-key
// registry used to resolve one-sided operations.

#ifndef SRC_RDMA_FABRIC_H_
#define SRC_RDMA_FABRIC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/check/checker.h"
#include "src/rdma/config.h"
#include "src/rdma/cq.h"
#include "src/rdma/memory.h"
#include "src/rdma/node.h"
#include "src/rdma/qp.h"
#include "src/rdma/types.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace rdma {

// A connected pair of QP endpoints (one per node).
struct QpEnds {
  QueuePair* first;
  QueuePair* second;
};

// A transient impairment on one node pair, installed/removed by the fault
// layer (src/fault/). Applies on top of the global wire model:
//  * `extra_delay_ns` is added to every traversal in either direction;
//  * `loss_prob` drops unreliable (UC/UD) packets crossing the pair, and for
//    reliable (RC) traffic charges `rc_retransmit_ns` per lost-and-retried
//    packet instead (the transport hides the loss but not the latency).
struct LinkFault {
  double loss_prob = 0.0;
  sim::Time extra_delay_ns = 0;
  sim::Time rc_retransmit_ns = 0;
};

class Fabric {
 public:
  explicit Fabric(sim::Engine& engine, FabricConfig config = {});

  // Flushes the per-node registered-memory census to obs gauges
  // (rdma.mr.registered_bytes / .registrations / .deregistrations).
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Engine& engine() { return engine_; }
  const FabricConfig& config() const { return config_; }

  // The invariant checker, attached at construction when the global check
  // mode is not off (RFP_CHECK env / check::SetMode). Null otherwise; every
  // hook site guards on it, so the default build path costs one null test.
  check::FabricChecker* checker() const { return checker_.get(); }

  // ---- Topology -------------------------------------------------------------

  Node& AddNode(std::string name);
  Node& node(size_t index) { return *nodes_[index]; }
  size_t node_count() const { return nodes_.size(); }

  // Creates a standalone CQ on a node (CQs may be shared between QPs).
  CompletionQueue* CreateCq(Node& node);

  // Connects two nodes with a reliable (RC) or unreliable (UC) connection.
  // Each endpoint gets dedicated send/recv CQs unless explicit CQs are given.
  QpEnds ConnectRc(Node& a, Node& b);
  QpEnds ConnectUc(Node& a, Node& b);

  // Creates an unconnected UD QP on a node (addressed per-SEND).
  QueuePair* CreateUd(Node& node);

  // ---- Internal services used by Node and QueuePair ------------------------

  MemoryRegion* RegisterMemory(Node& node, size_t size, uint32_t access);

  // Tears down a registration: the rkey stops resolving (subsequent one-sided
  // access completes with kRemoteAccessError and, under checking, flags
  // mr.use_after_deregister) and the region's memory is released.
  void DeregisterMemory(MemoryRegion* mr);

  // Removes a replaced QP endpoint from the fabric: it stops resolving as a
  // SEND destination, leaves the NIC's active-QP census, and rejects every
  // subsequent post with kQpError. Channels retire both old endpoints after
  // a reconnect so stale pointers cannot keep posting (and so NIC contention
  // reflects live QPs, not the reconnect history).
  void RetireQp(QueuePair* qp);

  // Registered-memory census (docs/memory.md): bytes currently registered on
  // `node` and how many registrations / deregistrations it has ever
  // performed. Steady-state pooled operation — channel churn, reconnects via
  // RetireQp — must leave RegistrationCount flat: re-registration is the
  // control-plane cost the mem::Pool exists to avoid.
  size_t RegisteredBytes(const Node& node) const { return node.registered_bytes_; }
  uint64_t RegistrationCount(const Node& node) const { return node.registration_count_; }
  uint64_t DeregistrationCount(const Node& node) const { return node.deregistration_count_; }

  // QP census, the connection-state side of the same scaling story: live
  // (non-retired) QPs whose local endpoint is `node`. The pooled connection
  // tier (src/conn) must keep this flat at N while serving M >> N logical
  // clients — QP state, like registered memory, must not grow with client
  // count (docs/connections.md).
  size_t LiveQpCount(const Node& node) const;

  // Resolves an rkey to its region; nullptr when unknown.
  MemoryRegion* FindRemote(RemoteKey rkey);

  // Resolves a UD destination; nullptr when unknown.
  QueuePair* FindQp(uint32_t node_id, uint32_t qp_num);

  // Draws a loss decision for unreliable transports.
  bool DrawLoss() {
    return config_.unreliable_loss_prob > 0.0 && rng_.NextBernoulli(config_.unreliable_loss_prob);
  }

  // ---- Fault hooks (src/fault/) -------------------------------------------

  // Installs/removes a LinkFault on the unordered node pair {a, b}.
  void SetLinkFault(uint32_t a, uint32_t b, const LinkFault& fault);
  void ClearLinkFault(uint32_t a, uint32_t b);
  const LinkFault* FindLinkFault(uint32_t a, uint32_t b) const;

  // One-way traversal time between two nodes: the global wire latency plus
  // any active link fault. For reliable transports a faulted link's loss
  // draw converts into a retransmission delay rather than a drop. With no
  // fault installed this consumes no RNG draws, so fault-free runs keep the
  // exact event schedule they had before the fault layer existed.
  sim::Time WireDelay(const Node* from, const Node* to, bool reliable);

  // Loss decision for unreliable transports crossing a specific pair:
  // the global `unreliable_loss_prob` draw plus any link-fault draw.
  bool DrawUnreliableLoss(const Node* from, const Node* to);

  // Transitions every RC QP whose endpoints live on the unordered node pair
  // {a, b} into the error state (both directions). Returns the number of
  // QPs transitioned. Recovery is by reconnecting (ConnectRc) — exactly the
  // verbs contract, where an error'd QP is torn down and replaced.
  int FailRcQps(uint32_t a, uint32_t b);

 private:
  QpEnds Connect(Node& a, Node& b, QpType type);

  static uint64_t PairKey(uint32_t a, uint32_t b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  sim::Engine& engine_;
  FabricConfig config_;
  std::unique_ptr<check::FabricChecker> checker_;
  sim::Rng rng_;
  uint32_t next_key_ = 1;
  uint32_t next_qpn_ = 1;
  std::deque<std::unique_ptr<Node>> nodes_;
  std::deque<std::unique_ptr<QueuePair>> qps_;
  std::deque<std::unique_ptr<CompletionQueue>> cqs_;
  std::unordered_map<uint32_t, MemoryRegion*> regions_by_rkey_;
  std::unordered_map<uint64_t, QueuePair*> qps_by_addr_;
  std::unordered_map<uint64_t, LinkFault> link_faults_;
};

}  // namespace rdma

#endif  // SRC_RDMA_FABRIC_H_
