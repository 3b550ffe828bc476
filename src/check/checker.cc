#include "src/check/checker.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
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
Limits g_limits;

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

Limits CurrentLimits() { return g_limits; }
void SetLimits(const Limits& limits) { g_limits = limits; }

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
  Append(EventKind::kStore, off, len, tick);
}

void RaceTracker::Publish(size_t off, size_t len, uint64_t tick) {
  Append(EventKind::kPublish, off, len, tick);
}

void RaceTracker::RemoteWrite(size_t off, size_t len, uint64_t tick) {
  Append(EventKind::kRemoteWrite, off, len, tick);
}

void RaceTracker::Append(EventKind kind, size_t off, size_t len, uint64_t tick) {
  if (len == 0) {
    return;
  }
  events_.push_back(Event{tick, kind, off, len});
  if (events_.size() > history_cap_) {
    Compact();
  }
}

void RaceTracker::Compact() {
  // Fold the oldest half of the event log into the baseline interval map,
  // replaying in order so later events override earlier ones.
  size_t fold = events_.size() / 2;
  for (size_t i = 0; i < fold; ++i) {
    const Event& e = events_.front();
    size_t begin = e.off;
    size_t end = e.off + e.len;
    bool dirty = e.kind == EventKind::kStore;

    // Remove the covered span from existing intervals, splitting at the edges.
    std::deque<BaseInterval> next;
    for (const BaseInterval& iv : baseline_) {
      if (iv.end <= begin || iv.off >= end) {
        next.push_back(iv);
        continue;
      }
      if (iv.off < begin) {
        next.push_back(BaseInterval{iv.off, begin, iv.dirty, iv.tick});
      }
      if (iv.end > end) {
        next.push_back(BaseInterval{end, iv.end, iv.dirty, iv.tick});
      }
    }
    next.push_back(BaseInterval{begin, end, dirty, e.tick});
    std::sort(next.begin(), next.end(),
              [](const BaseInterval& a, const BaseInterval& b) { return a.off < b.off; });
    baseline_ = std::move(next);
    baseline_tick_ = e.tick;
    events_.pop_front();
  }
}

std::optional<RaceTracker::Dirty> RaceTracker::FirstDirty(size_t off, size_t len,
                                                          uint64_t as_of) const {
  if (len == 0) {
    return std::nullopt;
  }
  // Undecided byte ranges of the query, shrinking as newer events claim them.
  std::vector<std::pair<size_t, size_t>> undecided = {{off, off + len}};

  // Walk newest -> oldest; the newest event at or before `as_of` touching a
  // byte decides that byte.
  for (auto it = events_.rbegin(); it != events_.rend() && !undecided.empty(); ++it) {
    const Event& e = *it;
    if (e.tick > as_of) {
      continue;
    }
    size_t ebegin = e.off;
    size_t eend = e.off + e.len;
    std::vector<std::pair<size_t, size_t>> next;
    next.reserve(undecided.size() + 1);
    for (const auto& [ubegin, uend] : undecided) {
      size_t obegin = std::max(ubegin, ebegin);
      size_t oend = std::min(uend, eend);
      if (obegin >= oend) {
        next.emplace_back(ubegin, uend);
        continue;
      }
      if (e.kind == EventKind::kStore) {
        return Dirty{obegin, oend - obegin, e.tick};
      }
      // Published or remote-written: clean; drop the overlap.
      if (ubegin < obegin) {
        next.emplace_back(ubegin, obegin);
      }
      if (oend < uend) {
        next.emplace_back(oend, uend);
      }
    }
    undecided = std::move(next);
  }

  // Whatever remains is decided by the baseline — unless the query predates
  // the fold horizon, where we answer conservatively clean.
  if (as_of < baseline_tick_) {
    return std::nullopt;
  }
  for (const auto& [ubegin, uend] : undecided) {
    for (const BaseInterval& iv : baseline_) {
      if (iv.end <= ubegin || iv.off >= uend) {
        continue;
      }
      if (iv.dirty) {
        size_t obegin = std::max(ubegin, iv.off);
        size_t oend = std::min(uend, iv.end);
        return Dirty{obegin, oend - obegin, iv.tick};
      }
    }
  }
  return std::nullopt;
}

// ---- FabricChecker ------------------------------------------------------------

FabricChecker::FabricChecker(sim::Engine* engine, Mode mode)
    : engine_(engine), mode_(mode), limits_(CurrentLimits()) {}

RaceTracker* FabricChecker::TrackerFor(uint32_t rkey) {
  auto it = trackers_.find(rkey);
  if (it == trackers_.end()) {
    it = trackers_.emplace(rkey, RaceTracker(limits_.race_history)).first;
  }
  return &it->second;
}

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
  if (info.in_flight > limits_.max_outstanding_wr) {
    std::ostringstream os;
    os << "qp " << qp_num << " has " << info.in_flight
       << " in-flight work requests (cap " << limits_.max_outstanding_wr << ")";
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
  if (depth_after > limits_.cq_capacity) {
    std::ostringstream os;
    os << "cq holds " << depth_after << " completions (cap " << limits_.cq_capacity
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
  TrackerFor(rkey)->Store(off, len, NextTick());
}

void FabricChecker::OnPublish(uint32_t rkey, size_t off, size_t len) {
  TrackerFor(rkey)->Publish(off, len, NextTick());
}

void FabricChecker::OnRemoteWrite(uint32_t rkey, size_t off, size_t len) {
  TrackerFor(rkey)->RemoteWrite(off, len, NextTick());
}

uint64_t FabricChecker::OnReadSnapshot(uint32_t rkey, size_t off, size_t len) {
  (void)rkey;
  (void)off;
  (void)len;
  return NextTick();
}

void FabricChecker::OnAccept(ViolationKind kind, uint32_t rkey, size_t off, size_t len,
                             uint64_t snapshot_tick, const char* what) {
  uint64_t as_of = snapshot_tick == 0 ? tick_ : snapshot_tick;
  auto dirty = TrackerFor(rkey)->FirstDirty(off, len, as_of);
  if (!dirty.has_value()) {
    return;
  }
  std::ostringstream os;
  os << what << " accepted bytes [" << off << ", " << off + len << ") of rkey " << rkey
     << " but [" << dirty->off << ", " << dirty->off + dirty->len
     << ") was CPU-stored at tick " << dirty->store_tick
     << " with no publication point before the snapshot (tick " << as_of << ")";
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
