#include "src/rdma/nic.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"

namespace rdma {

namespace {

sim::Time FromNs(double ns) { return static_cast<sim::Time>(ns + 0.5); }

}  // namespace

Nic::Nic(sim::Engine& engine, const NicConfig& config, uint64_t seed, std::string node_name)
    : engine_(engine),
      config_(config),
      node_name_(std::move(node_name)),
      rng_(sim::Mix64(seed ^ 0x4e4943)),  // "NIC"
      issue_pipeline_(engine, 1),
      inbound_engine_(engine, 1),
      post_lock_(engine) {
  ValidateConfig(config_);
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->NameTrack(reinterpret_cast<uint64_t>(this), node_name_ + " nic:outbound");
    trace->NameTrack(reinterpret_cast<uint64_t>(this) + 1, node_name_ + " nic:inbound");
  }
}

Nic::~Nic() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"node", node_name_}};
  reg.GetCounter("rdma.nic.outbound_ops", labels)->Add(outbound_ops_);
  reg.GetCounter("rdma.nic.inbound_ops", labels)->Add(inbound_ops_);
  if (stalls_ > 0) {
    reg.GetCounter("rdma.nic.stalls", labels)->Add(stalls_);
  }
  reg.GetHistogram("rdma.nic.issue_wait_ns", labels)->Merge(issue_wait_ns_);
  reg.GetHistogram("rdma.nic.issue_queue_depth", labels)->Merge(issue_queue_depth_);
}

void Nic::TraceService(std::string_view name, bool inbound, sim::Time start) {
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    const uint64_t track = reinterpret_cast<uint64_t>(this) + (inbound ? 1 : 0);
    trace->Span("nic", name, track, start, engine_.now());
  }
}

sim::Time Nic::Jitter(sim::Time nominal) {
  const double u = 2.0 * rng_.NextDouble() - 1.0;  // [-1, 1)
  return static_cast<sim::Time>(static_cast<double>(nominal) * (1.0 + kServiceJitter * u));
}

double Nic::OutboundMultiplier(Opcode op) const {
  const int extra = std::max(0, concurrent_outbound_ - kOutboundFreeThreads);
  const double factor = op == Opcode::kRead ? kOutboundReadThreadFactor
                                            : config_.outbound_write_thread_factor;
  return 1.0 + factor * static_cast<double>(extra);
}

sim::Time Nic::OutboundServiceTime(Opcode op, uint32_t payload, bool batch_follower) const {
  // A batch follower rides the leader's doorbell: the pipeline only pays the
  // marginal WQE-prefetch cost for it. The contention multiplier still
  // applies (per-op requester state is held either way), as does the wire
  // serialization floor, so large batched WRITEs stay bandwidth-bound.
  double base = op == Opcode::kSend    ? kTwoSidedTxNs
                : batch_follower       ? kOutboundBatchMarginalNs
                                       : config_.outbound_issue_ns;
  base *= OutboundMultiplier(op);
  const double serialization = static_cast<double>(payload) / config_.bandwidth_bytes_per_ns;
  return FromNs(std::max(base, serialization) * outbound_degrade_);
}

sim::Time Nic::InboundServiceTime(uint32_t payload) const {
  const double serialization = static_cast<double>(payload) / config_.bandwidth_bytes_per_ns;
  return FromNs(std::max(kInboundMinGapNs, serialization) * inbound_degrade_);
}

sim::Task<void> Nic::PostOverhead() {
  co_await post_lock_.Lock();
  co_await engine_.Sleep(FromNs(kPostLockNs));
  post_lock_.Unlock();
  co_await engine_.Sleep(FromNs(kPostCpuNs));
}

sim::Task<void> Nic::CompletionOverhead() {
  co_await engine_.Sleep(FromNs(kCompletionCpuNs));
}

sim::Task<void> Nic::IssueOneSided(Opcode op, uint32_t outbound_payload, bool batch_follower) {
  ++outbound_ops_;
  // Service time (and any jitter draw) is fixed at post time, before
  // queueing, so observability never changes the simulated schedule.
  const sim::Time service = Jitter(OutboundServiceTime(op, outbound_payload, batch_follower));
  issue_queue_depth_.Record(issue_pipeline_.queue_length());
  const sim::Time posted = engine_.now();
  co_await issue_pipeline_.Acquire();
  const sim::Time granted = engine_.now();
  issue_wait_ns_.Record(granted - posted);
  co_await engine_.Sleep(service);
  issue_pipeline_.Release();
  TraceService(OpcodeName(op), false, granted);
}

sim::Task<void> Nic::IssueTwoSided(uint32_t payload) {
  ++outbound_ops_;
  const sim::Time service = Jitter(OutboundServiceTime(Opcode::kSend, payload));
  issue_queue_depth_.Record(issue_pipeline_.queue_length());
  const sim::Time posted = engine_.now();
  co_await issue_pipeline_.Acquire();
  const sim::Time granted = engine_.now();
  issue_wait_ns_.Record(granted - posted);
  co_await engine_.Sleep(service);
  issue_pipeline_.Release();
  TraceService("SEND", false, granted);
}

sim::Task<void> Nic::AbsorbReadResponse(uint32_t payload) {
  const double serialization = static_cast<double>(payload) / config_.bandwidth_bytes_per_ns;
  co_await engine_.Sleep(FromNs(serialization + kReadStateCpuNs));
}

sim::Task<void> Nic::ServeInboundOneSided(uint32_t payload) {
  ++inbound_ops_;
  const sim::Time service = Jitter(InboundServiceTime(payload));
  co_await inbound_engine_.Acquire();
  const sim::Time granted = engine_.now();
  co_await engine_.Sleep(service);
  inbound_engine_.Release();
  TraceService("serve", true, granted);
}

sim::Task<void> Nic::ServeInboundTwoSided(uint32_t payload) {
  ++inbound_ops_;
  const double serialization = static_cast<double>(payload) / config_.bandwidth_bytes_per_ns;
  const sim::Time service =
      Jitter(FromNs(std::max(kTwoSidedRxNs, serialization) * inbound_degrade_));
  co_await inbound_engine_.Acquire();
  const sim::Time granted = engine_.now();
  co_await engine_.Sleep(service);
  inbound_engine_.Release();
  TraceService("recv", true, granted);
}

sim::Task<void> Nic::StallOutbound(sim::Time window) {
  ++stalls_;
  co_await issue_pipeline_.Acquire();
  const sim::Time start = engine_.now();
  co_await engine_.Sleep(window);
  issue_pipeline_.Release();
  TraceService("stall", false, start);
}

sim::Task<void> Nic::StallInbound(sim::Time window) {
  ++stalls_;
  co_await inbound_engine_.Acquire();
  const sim::Time start = engine_.now();
  co_await engine_.Sleep(window);
  inbound_engine_.Release();
  TraceService("stall", true, start);
}

namespace {

void Reject(const char* what) {
  throw std::invalid_argument(std::string("rdma config: ") + what);
}

void CheckNonNegative(double v, const char* what) {
  if (!(v >= 0.0)) Reject(what);  // negated compare also rejects NaN
}

void CheckProbability(double v, const char* what) {
  if (!(v >= 0.0 && v <= 1.0)) Reject(what);
}

}  // namespace

void ValidateConfig(const NicConfig& config) {
  CheckNonNegative(config.outbound_issue_ns, "outbound_issue_ns must be >= 0");
  CheckNonNegative(config.outbound_write_thread_factor,
                   "outbound_write_thread_factor must be >= 0");
  if (!(config.bandwidth_bytes_per_ns > 0.0)) Reject("bandwidth_bytes_per_ns must be > 0");
  if (config.cores < 1) Reject("cores must be >= 1");
  if (config.nic_station_cores < 0 || config.nic_station_cores >= config.cores) {
    Reject("nic_station_cores must be in [0, cores)");
  }
  if (config.mem_max_registered_bytes != 0 && config.mem_max_registered_bytes < kMemArenaBytes) {
    Reject("mem_max_registered_bytes below one arena (kMemArenaBytes)");
  }
}

void ValidateConfig(const FabricConfig& config) {
  ValidateConfig(config.nic);
  CheckProbability(config.unreliable_loss_prob, "unreliable_loss_prob must be in [0, 1]");
}

const char* WcStatusName(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess:
      return "SUCCESS";
    case WcStatus::kUnsupportedOp:
      return "UNSUPPORTED_OP";
    case WcStatus::kRemoteAccessError:
      return "REMOTE_ACCESS_ERROR";
    case WcStatus::kRnrRetryExceeded:
      return "RNR_RETRY_EXCEEDED";
    case WcStatus::kLocalProtError:
      return "LOCAL_PROT_ERROR";
    case WcStatus::kQpError:
      return "QP_ERROR";
  }
  return "UNKNOWN";
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kRead:
      return "READ";
    case Opcode::kWrite:
      return "WRITE";
    case Opcode::kSend:
      return "SEND";
    case Opcode::kRecv:
      return "RECV";
  }
  return "UNKNOWN";
}

const char* QpTypeName(QpType type) {
  switch (type) {
    case QpType::kRc:
      return "RC";
    case QpType::kUc:
      return "UC";
    case QpType::kUd:
      return "UD";
  }
  return "UNKNOWN";
}

}  // namespace rdma
