// Protocol invariant checking for the simulated RDMA stack.
//
// The checker is an always-compiled, default-off verification layer. When a
// fabric is built while the global mode is not kOff, it owns a FabricChecker
// and every QP/CQ/MR operation reports into it. Three checker families run:
//
//  * QP/CQ state machine — posts are validated against the two-state verb
//    machine (one post on an errored QP is legal discovery, a second post
//    without reconnect/recover is a violation; retired QPs reject all posts),
//    per-QP in-flight work requests are capped, completion queues are bounded,
//    and per-QP completion order of successful async posts must match post
//    order.
//  * MR bounds & rkey — every one-sided access is resolved against the live
//    registration table: rkey known, region on the peer node, offset+len in
//    bounds, access flags allow the op, and the registration has not been
//    torn down (use-after-deregister).
//  * Registered-memory race detector — a happens-before tracker over a
//    process-wide logical tick. CPU stores into a registered region mark
//    bytes dirty; publication points (the RFP status-flag/checksum protocol)
//    and remote WRITE deliveries mark them clean. A remote READ takes a
//    snapshot tick; when the reader *accepts* those bytes, every byte must
//    have been clean as of the snapshot. Symmetrically, a server accepting a
//    request validates the request bytes against local CPU stores.
//
// Violations increment `check.violation{kind}` in the default metrics
// registry, emit a Chrome-trace instant, and — in strict mode — throw
// ViolationError out of the offending simulator actor (the engine rethrows it
// from Run()). Report mode only records. See docs/static_analysis.md.

#ifndef SRC_CHECK_CHECKER_H_
#define SRC_CHECK_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/rdma/types.h"

namespace sim {
class Engine;
}
namespace obs {
class Counter;
}

namespace check {

// ---- Global mode -------------------------------------------------------------

enum class Mode : uint8_t {
  kOff,     // no checker is attached to new fabrics
  kReport,  // violations are counted and recorded, execution continues
  kStrict,  // violations throw ViolationError
};

const char* ModeName(Mode mode);

// Resolves the mode from the RFP_CHECK environment variable ("strict",
// "report", "off"/"0"/unset). Called once on first use of CurrentMode().
Mode ModeFromEnv();

// The mode new fabrics adopt; seeded from RFP_CHECK on first call.
Mode CurrentMode();
void SetMode(Mode mode);

// RAII mode override (tests, bench --check flag).
class ScopedMode {
 public:
  explicit ScopedMode(Mode mode);
  ~ScopedMode();

  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode saved_;
};

// Downgrades strict to report for a scope. Tests that deliberately exercise
// illegal paths (bad rkeys, unsupported ops) wrap the offending calls so the
// suite still passes under RFP_CHECK=strict while the violations are counted.
class ScopedReportOnly {
 public:
  ScopedReportOnly();
  ~ScopedReportOnly();

  ScopedReportOnly(const ScopedReportOnly&) = delete;
  ScopedReportOnly& operator=(const ScopedReportOnly&) = delete;

 private:
  Mode saved_;
};

// ---- Caps --------------------------------------------------------------------

// Maximum simultaneously in-flight work requests per QP (send side).
constexpr int kMaxOutstandingWr = 1024;
// Maximum completions buffered in one CQ before overflow is flagged.
constexpr size_t kCqCapacity = 16384;

// ---- Violations --------------------------------------------------------------

enum class ViolationKind : uint8_t {
  kQpPostAfterError,    // second post on an errored QP without reconnect
  kQpPostOnRetired,     // post on a QP retired by Fabric::RetireQp
  kQpUnsupportedOp,     // op outside the QP type's support matrix
  kQpWrCapExceeded,     // in-flight WRs above kMaxOutstandingWr
  kCqOverflow,          // CQ depth above kCqCapacity
  kCqCompletionOrder,   // successful completions out of post order on one QP
  kMrBadRkey,           // rkey not in the live registration table
  kMrDeregistered,      // rkey was valid once but has been deregistered
  kMrWrongNode,         // rkey resolves to a region on a different node
  kMrOutOfBounds,       // remote offset+len outside the registration
  kMrAccessRights,      // region's access flags do not allow the op
  kMrLocalOutOfBounds,  // local offset+len outside the local region
  kRaceFetchStore,      // accepted READ bytes overlapped an unpublished store
  kRaceRecvStore,       // accepted request bytes overlapped a local store
  kRfpOverlappingCall,  // ClientSend while the previous call is outstanding
  kRfpRecvWithoutSend,  // ClientRecv with no call outstanding
  kRfpSweepMissedRequest,  // sweep's ready set lacks a channel with work
  kReplEpochRegression, // replication group's epoch moved backwards
  kConnCidAssign,       // pooled connection id assigned while still live
  kConnCidRelease,      // pooled connection id released while not live
  kNumKinds,
};

// The metric label, e.g. "qp.post_after_error". `check.violation{kind=<this>}`
// is the counter every violation increments.
const char* ViolationKindName(ViolationKind kind);

class ViolationError : public std::runtime_error {
 public:
  ViolationError(ViolationKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  ViolationKind kind() const { return kind_; }

 private:
  ViolationKind kind_;
};

struct Violation {
  ViolationKind kind;
  std::string detail;
  uint64_t tick = 0;
  // Tie-break decisions recorded up to the violation when the run used a
  // sim::SchedulePolicy (empty otherwise). Feeding this to ReplayPolicy /
  // `explore::Replay` reproduces the offending interleaving exactly.
  std::string schedule_trace;
};

// ---- Race tracker ------------------------------------------------------------

// The dirty byte ranges of one registered region: bytes CPU-stored with no
// publication point or remote WRITE since. It holds only the present; the
// checker queries it when a READ snapshot is taken, which is by definition
// the state as of that snapshot.
class RaceTracker {
 public:
  void Store(size_t off, size_t len, uint64_t tick);
  void Publish(size_t off, size_t len);
  // A remote WRITE delivery is an atomic store+publish: the NIC lands the
  // bytes in one piece, so readers never observe them torn.
  void RemoteWrite(size_t off, size_t len) { Publish(off, len); }

  // Returns the lowest [off,len) overlap that is dirty now, or nullopt when
  // all bytes are clean.
  struct Dirty {
    size_t off;
    size_t len;
    uint64_t store_tick;
  };
  std::optional<Dirty> FirstDirty(size_t off, size_t len) const;

 private:
  struct Range {
    size_t end;
    uint64_t store_tick;
  };
  // Disjoint dirty ranges keyed by their first byte.
  std::map<size_t, Range> dirty_;
};

// ---- The per-fabric checker --------------------------------------------------

class FabricChecker {
 public:
  FabricChecker(sim::Engine* engine, Mode mode);

  Mode mode() const { return mode_; }

  // Logical clock. Bumped on every recorded event so that same-sim-instant
  // operations still have a total order (the sim executes them sequentially).
  uint64_t tick() const { return tick_; }

  // ---- Lifecycle (Fabric) --------------------------------------------------

  void OnQpCreated(uint32_t qp_num, rdma::QpType type);
  void OnQpRetired(uint32_t qp_num);
  void OnQpError(uint32_t qp_num);
  void OnQpRecovered(uint32_t qp_num);
  void OnMrRegistered(uint32_t rkey, const void* node, size_t size, uint32_t access);
  void OnMrDeregistered(uint32_t rkey);

  // ---- QP hooks (QueuePair) ------------------------------------------------

  // Validates a post. `supported` is false when the op falls outside the QP
  // type's matrix; `retired` when the QP was retired by the fabric. In report
  // mode the post proceeds into its error-completion path after the count;
  // strict mode throws out of the posting actor instead. `batch_follower`
  // marks a WR riding an earlier post's doorbell: a whole chain is posted
  // before any completion can be observed, so followers share their leader's
  // error discovery instead of counting as ignore-the-completion reposts.
  void OnPost(uint32_t qp_num, rdma::Opcode op, bool in_error, bool supported, bool retired,
              bool batch_follower = false);
  // Registers an async wr_id under the QP's post sequence so OnCqPush can
  // validate completion order.
  void OnAsyncPost(uint32_t qp_num, uint64_t wr_id);
  void OnOpEnd(uint32_t qp_num);
  // Local-buffer bounds for a post (checked by the QP before issuing).
  void OnLocalBounds(uint32_t qp_num, rdma::Opcode op, size_t off, size_t len, size_t mr_size,
                     bool in_bounds);
  // One-sided remote access resolution: validates `rkey` against the live
  // registration table (known, not deregistered, on `peer_node`, in bounds,
  // access flags allow `op`).
  void OnRemoteAccess(uint32_t qp_num, rdma::Opcode op, uint32_t rkey, size_t off, size_t len,
                      const void* peer_node);

  // ---- CQ hooks (CompletionQueue) ------------------------------------------

  void OnCqPush(const void* cq, const rdma::WorkCompletion& wc, size_t depth_after);

  // ---- Race hooks (memory / channel / fault injector) ----------------------

  void OnCpuStore(uint32_t rkey, size_t off, size_t len);
  void OnPublish(uint32_t rkey, size_t off, size_t len);
  void OnRemoteWrite(uint32_t rkey, size_t off, size_t len);
  // A remote READ snapshots the region; returns the snapshot tick the reader
  // threads through to OnAccept once it decides to trust the bytes. The
  // verdict is taken here: the dirty overlaps of [off,off+len) are kept
  // under the returned tick.
  uint64_t OnReadSnapshot(uint32_t rkey, size_t off, size_t len);
  // The reader accepted bytes [off,off+len) of `rkey` as a coherent message.
  // `snapshot_tick` is the tick of the READ that fetched them (0 = now); one
  // snapshot may be accepted several times. `what` labels the protocol step
  // for the violation detail.
  void OnAccept(ViolationKind kind, uint32_t rkey, size_t off, size_t len,
                uint64_t snapshot_tick, const char* what);

  // ---- Replication epoch hooks (src/repl) ----------------------------------

  // A node in replication group `group` (the coordinator's group key) started
  // serving at `epoch`. Epochs must be monotone per group: a promotion always
  // moves the group forward, so observing a smaller epoch than previously
  // recorded means two nodes believe they lead concurrently (split brain) or
  // a demotion was skipped. Wrap-around (wire epochs are 7 bits) is out of
  // scope — simulated runs promote a handful of times, never 2^7.
  void OnEpochAdvance(const void* group, uint32_t epoch);

  // ---- Pooled connection-id lifecycle (src/conn) ----------------------------

  // `server` (a conn::PooledServer) assigned or released pooled connection
  // id `cid`. Cids are the demux key that lets N QPs serve M >> N logical
  // clients, so their lifecycle is an aliasing invariant: assigning a cid
  // that is already live, or releasing one that is not, would route two
  // logical clients' replies through one connection entry
  // (docs/connections.md).
  void OnCidAssign(const void* server, uint32_t cid);
  void OnCidRelease(const void* server, uint32_t cid);

  // ---- RFP protocol pairing (Channel) --------------------------------------

  // Declares the channel's call window (outstanding-call capacity). Channels
  // call this once at construction when pipelining is enabled; an undeclared
  // channel defaults to window 1 (the classic one-call-at-a-time pairing).
  void OnChannelWindow(const void* channel, int window);
  void OnClientSend(const void* channel);
  void OnClientRecvStart(const void* channel);
  void OnClientRecvDone(const void* channel);

  // ---- RFP server sweep (RpcServer) -----------------------------------------

  // A server sweep found `channel`, one of its owned channels, outside its
  // ready set although a visit would find work there: `pending` requests
  // waiting, or (`unpushed_reply`) a stored response unpushed while the
  // client is in server-reply mode. Bytes reached the request ring without
  // marking the channel (docs/multicore.md §2).
  void OnSweepMissedRequest(const void* channel, int pending, bool unpushed_reply);

  // ---- Introspection (tests) -----------------------------------------------

  uint64_t violations(ViolationKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }
  uint64_t total_violations() const { return total_; }
  const std::deque<Violation>& recent() const { return recent_; }

 private:
  struct QpInfo {
    rdma::QpType type = rdma::QpType::kRc;
    bool in_error = false;
    bool error_observed = false;  // a post already discovered the error state
    bool retired = false;
    int in_flight = 0;
    uint64_t next_wr_seq = 0;      // assigned at async post
    uint64_t last_success_seq = 0;  // newest successfully completed post
    bool any_success = false;
  };

  uint64_t NextTick() { return ++tick_; }
  void Report(ViolationKind kind, std::string detail);

  sim::Engine* engine_;
  Mode mode_;
  uint64_t tick_ = 0;

  std::unordered_map<uint32_t, QpInfo> qps_;
  struct MrInfo {
    const void* node = nullptr;
    size_t size = 0;
    uint32_t access = 0;
    bool live = true;
  };
  std::unordered_map<uint32_t, MrInfo> mrs_;
  std::unordered_map<uint32_t, RaceTracker> trackers_;
  // Snapshot tick -> the dirty overlaps that READ saw, ascending. Only READs
  // that saw dirty bytes have an entry, kept for the checker's lifetime since
  // a reader may accept its snapshot at any later point; the publication
  // protocol keeps such READs out of clean runs (none on the claims benches).
  std::unordered_map<uint64_t, std::vector<RaceTracker::Dirty>> torn_snapshots_;
  // Async wr_id -> post sequence, for completion-order validation.
  std::unordered_map<uint32_t, std::unordered_map<uint64_t, uint64_t>> wr_seq_;
  // Per-channel send/recv pairing: outstanding calls must never exceed the
  // channel's declared window (1 unless OnChannelWindow raised it).
  struct CallPairing {
    int outstanding = 0;
    int window = 1;
  };
  std::unordered_map<const void*, CallPairing> call_outstanding_;

  // Highest epoch each replication group has served at (OnEpochAdvance).
  std::unordered_map<const void*, uint32_t> repl_epochs_;

  // Live pooled connection ids per conn::PooledServer (OnCidAssign/Release).
  std::unordered_map<const void*, std::unordered_set<uint32_t>> live_cids_;

  uint64_t counts_[static_cast<size_t>(ViolationKind::kNumKinds)] = {};
  obs::Counter* counters_[static_cast<size_t>(ViolationKind::kNumKinds)] = {};
  uint64_t total_ = 0;
  std::deque<Violation> recent_;
};

}  // namespace check

#endif  // SRC_CHECK_CHECKER_H_
