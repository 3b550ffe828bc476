#include "src/check/checker.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/schedule.h"

namespace check {

namespace {

Mode g_mode = Mode::kOff;
bool g_mode_initialized = false;

constexpr size_t kRecentCap = 64;

// Local name helpers: the canonical OpcodeName/QpTypeName live in rfp_rdma,
// which links *against* this library — calling them here would be a cycle.
const char* OpName(rdma::Opcode op) {
  switch (op) {
    case rdma::Opcode::kRead:
      return "READ";
    case rdma::Opcode::kWrite:
      return "WRITE";
    case rdma::Opcode::kSend:
      return "SEND";
    case rdma::Opcode::kRecv:
      return "RECV";
  }
  return "?";
}

const char* TypeName(rdma::QpType type) {
  switch (type) {
    case rdma::QpType::kRc:
      return "RC";
    case rdma::QpType::kUc:
      return "UC";
    case rdma::QpType::kUd:
      return "UD";
  }
  return "?";
}

}  // namespace

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kReport:
      return "report";
    case Mode::kStrict:
      return "strict";
  }
  return "?";
}

Mode ModeFromEnv() {
  const char* env = std::getenv("RFP_CHECK");
  if (env == nullptr) {
    return Mode::kOff;
  }
  if (std::strcmp(env, "strict") == 0 || std::strcmp(env, "1") == 0) {
    return Mode::kStrict;
  }
  if (std::strcmp(env, "report") == 0) {
    return Mode::kReport;
  }
  return Mode::kOff;
}

Mode CurrentMode() {
  if (!g_mode_initialized) {
    g_mode = ModeFromEnv();
    g_mode_initialized = true;
  }
  return g_mode;
}

void SetMode(Mode mode) {
  g_mode_initialized = true;
  g_mode = mode;
}

ScopedMode::ScopedMode(Mode mode) : saved_(CurrentMode()) { SetMode(mode); }
ScopedMode::~ScopedMode() { SetMode(saved_); }

ScopedReportOnly::ScopedReportOnly() : saved_(CurrentMode()) {
  if (saved_ == Mode::kStrict) {
    SetMode(Mode::kReport);
  }
}
ScopedReportOnly::~ScopedReportOnly() { SetMode(saved_); }

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kQpPostAfterError:
      return "qp.post_after_error";
    case ViolationKind::kQpPostOnRetired:
      return "qp.post_on_retired";
    case ViolationKind::kQpUnsupportedOp:
      return "qp.unsupported_op";
    case ViolationKind::kQpWrCapExceeded:
      return "qp.wr_cap_exceeded";
    case ViolationKind::kCqOverflow:
      return "cq.overflow";
    case ViolationKind::kCqCompletionOrder:
      return "cq.completion_order";
    case ViolationKind::kMrBadRkey:
      return "mr.bad_rkey";
    case ViolationKind::kMrDeregistered:
      return "mr.use_after_deregister";
    case ViolationKind::kMrWrongNode:
      return "mr.wrong_node";
    case ViolationKind::kMrOutOfBounds:
      return "mr.out_of_bounds";
    case ViolationKind::kMrAccessRights:
      return "mr.access_rights";
    case ViolationKind::kMrLocalOutOfBounds:
      return "mr.local_out_of_bounds";
    case ViolationKind::kRaceFetchStore:
      return "race.fetch_store";
    case ViolationKind::kRaceRecvStore:
      return "race.recv_store";
    case ViolationKind::kRfpOverlappingCall:
      return "rfp.overlapping_call";
    case ViolationKind::kRfpRecvWithoutSend:
      return "rfp.recv_without_send";
    case ViolationKind::kRfpSweepMissedRequest:
      return "rfp.sweep_missed_request";
    case ViolationKind::kReplEpochRegression:
      return "repl.epoch_regression";
    case ViolationKind::kConnCidAssign:
      return "conn.cid_assign";
    case ViolationKind::kConnCidRelease:
      return "conn.cid_release";
    case ViolationKind::kNumKinds:
      break;
  }
  return "?";
}

// ---- RaceTracker --------------------------------------------------------------

void RaceTracker::Store(size_t off, size_t len, uint64_t tick) {
  if (len == 0) {
    return;
  }
  Publish(off, len);
  dirty_.emplace(off, Range{off + len, tick});
}

void RaceTracker::Publish(size_t off, size_t len) {
  if (len == 0) {
    return;
  }
  const size_t end = off + len;
  auto it = dirty_.lower_bound(off);
  if (it != dirty_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > off) {
      // `prev` straddles `off`: keep its head, and its tail past `end` if any.
      const Range whole = prev->second;
      prev->second.end = off;
      if (whole.end > end) {
        dirty_.emplace_hint(it, end, whole);
        return;
      }
    }
  }
  while (it != dirty_.end() && it->first < end) {
    const Range range = it->second;
    it = dirty_.erase(it);
    if (range.end > end) {
      dirty_.emplace_hint(it, end, range);
      return;
    }
  }
}

std::optional<RaceTracker::Dirty> RaceTracker::FirstDirty(size_t off, size_t len) const {
  const size_t end = off + len;
  auto it = dirty_.upper_bound(off);
  if (it != dirty_.begin() && std::prev(it)->second.end > off) {
    --it;
  }
  if (len == 0 || it == dirty_.end() || it->first >= end) {
    return std::nullopt;
  }
  const size_t begin = std::max(off, it->first);
  return Dirty{begin, std::min(end, it->second.end) - begin, it->second.store_tick};
}

// ---- FabricChecker ------------------------------------------------------------

FabricChecker::FabricChecker(sim::Engine* engine, Mode mode) : engine_(engine), mode_(mode) {}

void FabricChecker::Report(ViolationKind kind, std::string detail) {
  counts_[static_cast<size_t>(kind)]++;
  total_++;
  size_t idx = static_cast<size_t>(kind);
  if (counters_[idx] == nullptr) {
    counters_[idx] = obs::MetricsRegistry::Default().GetCounter(
        "check.violation", {{"kind", ViolationKindName(kind)}});
  }
  counters_[idx]->Add(1);
  if (engine_ != nullptr && engine_->trace_sink() != nullptr) {
    engine_->trace_sink()->Instant("check", ViolationKindName(kind), 0, engine_->now());
  }
  // Under a schedule policy the violation is a property of the explored
  // interleaving, not just the scenario — attach the decision trace so the
  // exact schedule is a replayable artifact (and shows up in the strict-mode
  // exception message).
  std::string schedule_trace;
  if (engine_ != nullptr && engine_->schedule_policy() != nullptr) {
    schedule_trace = sim::FormatDecisionTrace(engine_->schedule_policy()->choices());
  }
  if (!schedule_trace.empty()) {
    detail += " [schedule=" + schedule_trace + "]";
  }
  recent_.push_back(Violation{kind, detail, tick_, std::move(schedule_trace)});
  if (recent_.size() > kRecentCap) {
    recent_.pop_front();
  }
  // The live mode governs, so ScopedReportOnly can downgrade a strict run
  // around deliberately-illegal test traffic.
  Mode live = CurrentMode() == Mode::kOff ? mode_ : CurrentMode();
  if (live == Mode::kStrict) {
    throw ViolationError(kind,
                         std::string(ViolationKindName(kind)) + ": " + recent_.back().detail);
  }
}

void FabricChecker::OnQpCreated(uint32_t qp_num, rdma::QpType type) {
  QpInfo& info = qps_[qp_num];
  info = QpInfo{};
  info.type = type;
}

void FabricChecker::OnQpRetired(uint32_t qp_num) { qps_[qp_num].retired = true; }

void FabricChecker::OnQpError(uint32_t qp_num) {
  QpInfo& info = qps_[qp_num];
  info.in_error = true;
  info.error_observed = false;
}

void FabricChecker::OnQpRecovered(uint32_t qp_num) {
  QpInfo& info = qps_[qp_num];
  info.in_error = false;
  info.error_observed = false;
}

void FabricChecker::OnPost(uint32_t qp_num, rdma::Opcode op, bool in_error, bool supported,
                           bool retired, bool batch_follower) {
  NextTick();
  QpInfo& info = qps_[qp_num];
  if (retired || info.retired) {
    std::ostringstream os;
    os << "post of " << OpName(op) << " on retired qp " << qp_num
       << " (stale endpoint kept across a reconnect?)";
    Report(ViolationKind::kQpPostOnRetired, os.str());
    return;
  }
  if (!supported) {
    std::ostringstream os;
    os << OpName(op) << " posted on " << TypeName(info.type) << " qp " << qp_num
       << " which does not support it";
    Report(ViolationKind::kQpUnsupportedOp, os.str());
    return;
  }
  if (in_error || info.in_error) {
    // First post discovers the error (legal: the poster learns via the
    // kQpError completion). A second post without reconnect/recover means
    // the caller ignored the completion status — unless it rides the same
    // doorbell as the discovering leader: a batch chain is posted whole
    // before any completion is visible, and the NIC flushes it as a unit.
    if (info.error_observed && !batch_follower) {
      std::ostringstream os;
      os << "post of " << OpName(op) << " on errored qp " << qp_num
         << " after the error was already reported; reconnect or Recover() first";
      Report(ViolationKind::kQpPostAfterError, os.str());
    }
    info.in_error = true;
    info.error_observed = true;
    return;
  }
  info.in_flight++;
  if (info.in_flight > kMaxOutstandingWr) {
    std::ostringstream os;
    os << "qp " << qp_num << " has " << info.in_flight << " in-flight work requests (cap "
       << kMaxOutstandingWr << ")";
    Report(ViolationKind::kQpWrCapExceeded, os.str());
  }
}

void FabricChecker::OnAsyncPost(uint32_t qp_num, uint64_t wr_id) {
  QpInfo& info = qps_[qp_num];
  wr_seq_[qp_num][wr_id] = info.next_wr_seq++;
}

void FabricChecker::OnOpEnd(uint32_t qp_num) {
  QpInfo& info = qps_[qp_num];
  if (info.in_flight > 0) {
    info.in_flight--;
  }
}

void FabricChecker::OnLocalBounds(uint32_t qp_num, rdma::Opcode op, size_t off, size_t len,
                                  size_t mr_size, bool in_bounds) {
  if (in_bounds) {
    return;
  }
  NextTick();
  std::ostringstream os;
  os << OpName(op) << " on qp " << qp_num << ": local [" << off << ", " << off + len
     << ") outside region of " << mr_size << " bytes";
  Report(ViolationKind::kMrLocalOutOfBounds, os.str());
}

void FabricChecker::OnRemoteAccess(uint32_t qp_num, rdma::Opcode op, uint32_t rkey, size_t off,
                                   size_t len, const void* peer_node) {
  NextTick();
  auto it = mrs_.find(rkey);
  if (it == mrs_.end()) {
    std::ostringstream os;
    os << OpName(op) << " on qp " << qp_num << ": rkey " << rkey
       << " was never registered";
    Report(ViolationKind::kMrBadRkey, os.str());
    return;
  }
  const MrInfo& mr = it->second;
  if (!mr.live) {
    std::ostringstream os;
    os << OpName(op) << " on qp " << qp_num << ": rkey " << rkey
       << " was deregistered; one-sided access after teardown";
    Report(ViolationKind::kMrDeregistered, os.str());
    return;
  }
  if (peer_node != nullptr && mr.node != peer_node) {
    std::ostringstream os;
    os << OpName(op) << " on qp " << qp_num << ": rkey " << rkey
       << " belongs to a different node than the QP's peer";
    Report(ViolationKind::kMrWrongNode, os.str());
    return;
  }
  if (off + len > mr.size) {
    std::ostringstream os;
    os << OpName(op) << " on qp " << qp_num << ": remote [" << off << ", " << off + len
       << ") outside region of " << mr.size << " bytes (rkey " << rkey << ")";
    Report(ViolationKind::kMrOutOfBounds, os.str());
    return;
  }
  uint32_t needed = op == rdma::Opcode::kRead ? rdma::kAccessRemoteRead : rdma::kAccessRemoteWrite;
  if ((mr.access & needed) == 0) {
    std::ostringstream os;
    os << OpName(op) << " on qp " << qp_num << ": rkey " << rkey
       << " does not grant " << (op == rdma::Opcode::kRead ? "remote read" : "remote write");
    Report(ViolationKind::kMrAccessRights, os.str());
  }
}

void FabricChecker::OnMrRegistered(uint32_t rkey, const void* node, size_t size,
                                   uint32_t access) {
  mrs_[rkey] = MrInfo{node, size, access, true};
}

void FabricChecker::OnMrDeregistered(uint32_t rkey) {
  auto it = mrs_.find(rkey);
  if (it != mrs_.end()) {
    it->second.live = false;
  }
}

void FabricChecker::OnCqPush(const void* cq, const rdma::WorkCompletion& wc, size_t depth_after) {
  NextTick();
  if (depth_after > kCqCapacity) {
    std::ostringstream os;
    os << "cq holds " << depth_after << " completions (cap " << kCqCapacity
       << "); consumer is not draining";
    Report(ViolationKind::kCqOverflow, os.str());
  }
  (void)cq;
  // Successful async completions on one QP must arrive in post order; error
  // completions may jump the queue (flush semantics), so only successes are
  // checked — their post sequence must be monotonically increasing.
  if (wc.opcode == rdma::Opcode::kRecv) {
    return;
  }
  auto qit = wr_seq_.find(wc.qp_num);
  if (qit == wr_seq_.end()) {
    return;
  }
  auto wit = qit->second.find(wc.wr_id);
  if (wit == qit->second.end()) {
    return;
  }
  uint64_t seq = wit->second;
  qit->second.erase(wit);
  if (wc.status != rdma::WcStatus::kSuccess) {
    return;
  }
  QpInfo& info = qps_[wc.qp_num];
  if (info.any_success && seq <= info.last_success_seq) {
    std::ostringstream os;
    os << "qp " << wc.qp_num << ": completion for post #" << seq << " (wr_id " << wc.wr_id
       << ") arrived after post #" << info.last_success_seq
       << " already completed; RC completions overtook post order";
    Report(ViolationKind::kCqCompletionOrder, os.str());
    return;
  }
  info.any_success = true;
  info.last_success_seq = seq;
}

void FabricChecker::OnCpuStore(uint32_t rkey, size_t off, size_t len) {
  trackers_[rkey].Store(off, len, NextTick());
}

void FabricChecker::OnPublish(uint32_t rkey, size_t off, size_t len) {
  NextTick();
  trackers_[rkey].Publish(off, len);
}

void FabricChecker::OnRemoteWrite(uint32_t rkey, size_t off, size_t len) {
  NextTick();
  trackers_[rkey].RemoteWrite(off, len);
}

uint64_t FabricChecker::OnReadSnapshot(uint32_t rkey, size_t off, size_t len) {
  const uint64_t tick = NextTick();
  auto it = trackers_.find(rkey);
  if (it == trackers_.end()) {
    return tick;
  }
  const size_t end = off + len;
  std::vector<RaceTracker::Dirty> seen;
  for (auto dirty = it->second.FirstDirty(off, len); dirty.has_value();) {
    seen.push_back(*dirty);
    const size_t next = dirty->off + dirty->len;
    dirty = it->second.FirstDirty(next, end - next);
  }
  if (!seen.empty()) {
    torn_snapshots_.emplace(tick, std::move(seen));
  }
  return tick;
}

void FabricChecker::OnAccept(ViolationKind kind, uint32_t rkey, size_t off, size_t len,
                             uint64_t snapshot_tick, const char* what) {
  std::optional<RaceTracker::Dirty> dirty;
  if (snapshot_tick == 0) {
    auto it = trackers_.find(rkey);
    if (it != trackers_.end()) {
      dirty = it->second.FirstDirty(off, len);
    }
  } else if (auto it = torn_snapshots_.find(snapshot_tick); it != torn_snapshots_.end()) {
    // The snapshot's overlaps are ascending: the first one reaching into the
    // accepted range is the lowest dirty byte the reader trusted.
    const size_t end = off + len;
    for (const RaceTracker::Dirty& seen : it->second) {
      const size_t begin = std::max(off, seen.off);
      const size_t stop = std::min(end, seen.off + seen.len);
      if (begin < stop) {
        dirty = RaceTracker::Dirty{begin, stop - begin, seen.store_tick};
        break;
      }
    }
  }
  if (!dirty.has_value()) {
    return;
  }
  std::ostringstream os;
  os << what << " accepted bytes [" << off << ", " << off + len << ") of rkey " << rkey
     << " but [" << dirty->off << ", " << dirty->off + dirty->len
     << ") was CPU-stored at tick " << dirty->store_tick
     << " with no publication point before the snapshot (tick "
     << (snapshot_tick == 0 ? tick_ : snapshot_tick) << ")";
  Report(kind, os.str());
}

void FabricChecker::OnEpochAdvance(const void* group, uint32_t epoch) {
  NextTick();
  auto [it, inserted] = repl_epochs_.try_emplace(group, epoch);
  if (inserted) {
    return;
  }
  if (epoch < it->second) {
    std::ostringstream os;
    os << "replication group served at epoch " << epoch << " after epoch " << it->second
       << " — two leaders concurrently (split brain) or a skipped demotion";
    Report(ViolationKind::kReplEpochRegression, os.str());
    return;
  }
  it->second = epoch;
}

void FabricChecker::OnCidAssign(const void* server, uint32_t cid) {
  NextTick();
  auto [it, inserted] = live_cids_[server].insert(cid);
  (void)it;
  if (!inserted) {
    std::ostringstream os;
    os << "pooled connection id " << cid
       << " assigned while still live — two logical clients would alias one "
          "connection entry";
    Report(ViolationKind::kConnCidAssign, os.str());
  }
}

void FabricChecker::OnCidRelease(const void* server, uint32_t cid) {
  NextTick();
  if (live_cids_[server].erase(cid) == 0) {
    std::ostringstream os;
    os << "pooled connection id " << cid << " released while not live";
    Report(ViolationKind::kConnCidRelease, os.str());
  }
}

void FabricChecker::OnChannelWindow(const void* channel, int window) {
  call_outstanding_[channel].window = window < 1 ? 1 : window;
}

void FabricChecker::OnClientSend(const void* channel) {
  NextTick();
  CallPairing& pairing = call_outstanding_[channel];
  if (pairing.outstanding >= pairing.window) {
    Report(ViolationKind::kRfpOverlappingCall,
           pairing.window == 1
               ? "ClientSend while the previous call's ClientRecv is still outstanding"
               : "ClientSend/SubmitCall beyond the channel's declared call window");
    return;
  }
  ++pairing.outstanding;
}

void FabricChecker::OnClientRecvStart(const void* channel) {
  NextTick();
  const CallPairing& pairing = call_outstanding_[channel];
  if (pairing.outstanding == 0) {
    Report(ViolationKind::kRfpRecvWithoutSend,
           "ClientRecv with no ClientSend outstanding on this channel");
  }
}

void FabricChecker::OnClientRecvDone(const void* channel) {
  CallPairing& pairing = call_outstanding_[channel];
  if (pairing.outstanding > 0) {
    --pairing.outstanding;
  }
}

void FabricChecker::OnSweepMissedRequest(const void* channel, int pending, bool unpushed_reply) {
  NextTick();
  std::ostringstream os;
  os << "sweep skipped channel " << channel << " outside its ready set with " << pending
     << " pending request(s)" << (unpushed_reply ? " and an unpushed reply-mode response" : "");
  Report(ViolationKind::kRfpSweepMissedRequest, os.str());
}

}  // namespace check
