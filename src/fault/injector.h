// Executes a FaultPlan against a live fabric.
//
// The injector schedules every event of an armed plan on the sim clock and
// applies it through the substrate's fault hooks:
//
//   kNicStall      Nic::StallOutbound / StallInbound (station occupied)
//   kNicDegrade    Nic::Set{Outbound,Inbound}Degrade, restored after window
//   kLinkBurst     Fabric::SetLinkFault / ClearLinkFault on the node pair
//   kServerCrash   RpcServer::CrashThread / RestartThread (needs BindServer)
//   kQpError       Fabric::FailRcQps on the node pair
//   kCorruptRegion XOR of a byte range in the rkey's registered region
//
// A server sweep visits only channels in its ready set, which request
// WRITEs mark. Corruption flips bytes outside that path, so Corrupt marks
// ready every channel whose request ring it touched, on the RpcServer bound
// to the region's node (BindServer): the sweep sees request-ring corruption
// only through a bound server.
//
// Every injected fault emits a trace span/instant (category "fault") and a
// `fault.injected{kind}` counter, so injected causes line up with the
// channels' detected/recovered events in the same dump.

#ifndef SRC_FAULT_INJECTOR_H_
#define SRC_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <unordered_map>

#include "src/fault/plan.h"
#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/sim/task.h"

namespace fault {

class FaultInjector {
 public:
  explicit FaultInjector(rdma::Fabric& fabric);

  // Flushes `fault.injected` counters into the default metrics registry.
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Associates `server` with the node it runs on, making that node a valid
  // target for kServerCrash events and letting kCorruptRegion events in its
  // request rings reach its sweep. Must happen before Arm().
  void BindServer(uint32_t node_id, rfp::RpcServer* server);

  // Validates `plan` against the fabric topology and schedules every event.
  // May be called multiple times (schedules accumulate). Events in the past
  // fire immediately when the engine next runs.
  void Arm(const FaultPlan& plan);

  uint64_t injected() const { return injected_; }
  uint64_t injected(FaultKind kind) const {
    return by_kind_[static_cast<size_t>(kind)];
  }

 private:
  void Fire(const FaultEvent& event);
  void Corrupt(const FaultEvent& event);
  // Emits the fault's trace mark: a span over [at, at+duration] for windowed
  // kinds, an instant otherwise.
  void Trace(const FaultEvent& event);

  rdma::Fabric& fabric_;
  sim::Engine& engine_;
  std::unordered_map<uint32_t, rfp::RpcServer*> servers_;
  uint64_t injected_ = 0;
  std::array<uint64_t, kFaultKindCount> by_kind_{};
};

}  // namespace fault

#endif  // SRC_FAULT_INJECTOR_H_
