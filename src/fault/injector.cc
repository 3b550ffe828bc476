#include "src/fault/injector.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"
#include "src/rdma/memory.h"
#include "src/rdma/nic.h"
#include "src/rdma/node.h"
#include "src/sim/random.h"

namespace fault {

FaultInjector::FaultInjector(rdma::Fabric& fabric)
    : fabric_(fabric), engine_(fabric.engine()) {
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->NameTrack(reinterpret_cast<uint64_t>(this), "fault injector");
  }
}

FaultInjector::~FaultInjector() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (int k = 0; k < kFaultKindCount; ++k) {
    if (by_kind_[static_cast<size_t>(k)] > 0) {
      reg.GetCounter("fault.injected", {{"kind", FaultKindName(static_cast<FaultKind>(k))}})
          ->Add(by_kind_[static_cast<size_t>(k)]);
    }
  }
}

void FaultInjector::BindServer(uint32_t node_id, rfp::RpcServer* server) {
  servers_[node_id] = server;
}

void FaultInjector::Arm(const FaultPlan& plan) {
  plan.Validate();
  const uint32_t nodes = static_cast<uint32_t>(fabric_.node_count());
  for (const FaultEvent& event : plan.events) {
    if (event.node >= nodes ||
        ((event.kind == FaultKind::kLinkBurst || event.kind == FaultKind::kQpError) &&
         event.peer >= nodes)) {
      throw std::invalid_argument(std::string("fault injector: ") + FaultKindName(event.kind) +
                                  " targets a node outside the fabric");
    }
    if (event.kind == FaultKind::kServerCrash) {
      auto it = servers_.find(event.node);
      if (it == servers_.end()) {
        throw std::invalid_argument("fault injector: server_crash targets node " +
                                    std::to_string(event.node) + " with no bound RpcServer");
      }
      if (event.thread != kAllThreads && event.thread >= it->second->num_threads()) {
        throw std::invalid_argument("fault injector: server_crash thread out of range");
      }
    }
    engine_.ScheduleAt(event.at, [this, event] { Fire(event); });
  }
}

void FaultInjector::Trace(const FaultEvent& event) {
  sim::TraceSink* trace = engine_.trace_sink();
  if (trace == nullptr) {
    return;
  }
  const uint64_t track = reinterpret_cast<uint64_t>(this);
  if (event.duration > 0) {
    trace->Span("fault", FaultKindName(event.kind), track, event.at, event.at + event.duration);
  } else {
    trace->Instant("fault", FaultKindName(event.kind), track, event.at);
  }
}

void FaultInjector::Fire(const FaultEvent& event) {
  ++injected_;
  ++by_kind_[static_cast<size_t>(event.kind)];
  Trace(event);
  switch (event.kind) {
    case FaultKind::kNicStall: {
      rdma::Nic& nic = fabric_.node(event.node).nic();
      engine_.Spawn(event.inbound ? nic.StallInbound(event.duration)
                                  : nic.StallOutbound(event.duration));
      break;
    }
    case FaultKind::kNicDegrade: {
      rdma::Nic& nic = fabric_.node(event.node).nic();
      if (event.inbound) {
        nic.SetInboundDegrade(event.severity);
      } else {
        nic.SetOutboundDegrade(event.severity);
      }
      // Windows on the same (node, station) must not overlap: restore is
      // unconditional, not a pop of a nesting stack.
      engine_.ScheduleAfter(event.duration, [this, event] {
        rdma::Nic& target = fabric_.node(event.node).nic();
        if (event.inbound) {
          target.SetInboundDegrade(1.0);
        } else {
          target.SetOutboundDegrade(1.0);
        }
      });
      break;
    }
    case FaultKind::kLinkBurst: {
      rdma::LinkFault link;
      link.loss_prob = event.severity;
      link.extra_delay_ns = event.extra_delay_ns;
      link.rc_retransmit_ns = event.rc_retransmit_ns;
      fabric_.SetLinkFault(event.node, event.peer, link);
      engine_.ScheduleAfter(event.duration,
                            [this, event] { fabric_.ClearLinkFault(event.node, event.peer); });
      break;
    }
    case FaultKind::kServerCrash: {
      rfp::RpcServer* server = servers_.at(event.node);
      if (event.thread == kAllThreads) {
        // Whole-node crash: every worker goes dark at once, so the outage
        // cannot be masked by work stealing — surviving failover machinery
        // (a lease-probing coordinator, docs/replication.md) must notice.
        for (int t = 0; t < server->num_threads(); ++t) {
          server->CrashThread(t);
        }
        engine_.ScheduleAfter(event.duration, [server] {
          for (int t = 0; t < server->num_threads(); ++t) {
            server->RestartThread(t);
          }
        });
        break;
      }
      server->CrashThread(event.thread);
      engine_.ScheduleAfter(event.duration,
                            [server, event] { server->RestartThread(event.thread); });
      break;
    }
    case FaultKind::kQpError:
      fabric_.FailRcQps(event.node, event.peer);
      break;
    case FaultKind::kCorruptRegion:
      Corrupt(event);
      break;
  }
}

void FaultInjector::Corrupt(const FaultEvent& event) {
  rdma::MemoryRegion* mr = fabric_.FindRemote(rdma::RemoteKey{event.rkey});
  if (mr == nullptr) {
    throw std::invalid_argument("fault injector: corrupt_region rkey " +
                                std::to_string(event.rkey) + " is not registered");
  }
  if (event.offset >= mr->size()) {
    return;  // window entirely past the region: nothing to flip
  }
  const size_t len = std::min(event.length, mr->size() - event.offset);
  std::span<std::byte> bytes = mr->bytes().subspan(event.offset, len);
  sim::Rng rng(sim::Mix64(event.seed ^ 0x434f5252));  // "CORR"
  for (std::byte& b : bytes) {
    // XOR with a nonzero byte guarantees every targeted byte really changes.
    b ^= static_cast<std::byte>(1 + rng.NextBounded(255));
  }
  mr->Touched(event.offset, len);
  auto it = servers_.find(mr->node()->id());
  if (it != servers_.end()) {
    it->second->MarkRequestRingsTouched(event.rkey, event.offset, len);
  }
}

}  // namespace fault
