// The RFP channel: one client thread <-> one server thread message pipe
// implementing the paper's four primitives (Table 2) and the hybrid
// remote-fetch / server-reply state machine (Section 3.2).
//
// Data path (paper Fig 7):
//
//   client_send  — RDMA WRITE of [RequestHeader|payload] into the server's
//                  request block (in-bound at the server).
//   server_recv  — the server thread polls its local request block.
//   server_send  — the server stores [ResponseHeader|payload] into its local
//                  response block; in server-reply mode it additionally RDMA
//                  WRITEs the response to the client (out-bound).
//   client_recv  — in remote-fetch mode the client repeatedly RDMA READs
//                  `fetch_size` bytes of the response block until the header
//                  matches its call sequence (in-bound at the server); if the
//                  response exceeds the fetch size, one more READ collects
//                  the remainder. In server-reply mode the client polls its
//                  local landing buffer.
//
// Every channel runs one slotted data path: RfpOptions::window request/
// response block pairs ("slots") per channel, each carrying one call. The
// default window of 1 is exactly the paper's single block pair; wider
// windows pipeline calls (docs/pipelining.md).
//
// Mode machine: after `slow_calls_before_switch` consecutive calls exceed
// `retry_threshold` failed fetches, the client flips the channel to
// server-reply (a one-byte RDMA WRITE updates the server-visible mode flag
// mid-call). While replying, the server stamps its process time into each
// response header; once `fast_calls_before_switch_back` consecutive replies
// report a process time at or below `switch_back_us`, the client returns to
// remote fetching (the next request header carries the new mode).

#ifndef SRC_RFP_CHANNEL_H_
#define SRC_RFP_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/mem/pool.h"
#include "src/rdma/fabric.h"
#include "src/rdma/memory.h"
#include "src/rdma/qp.h"
#include "src/rfp/options.h"
#include "src/rfp/wire.h"
#include "src/sim/cpu.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

namespace rfp {

class RpcServer;

// Thrown by ClientRecv when the call's propagated deadline expired: either
// the server shed the request with BUSY(deadline), or the deadline passed
// while the client was backing off from BUSY(admission). The request was not
// (and will not be) executed past the deadline.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by ClientRecv/AwaitCall when the server answered with a REDIRECT
// header: the server is not (or no longer) the primary for the epoch the
// request carried. The request was not executed. `server_epoch` is the
// rejecting server's current epoch and `leader_hint` the node id it believes
// is the leader; a replication-aware client re-resolves the leader (see
// repl::Client) and re-issues under the new epoch.
class Redirected : public std::runtime_error {
 public:
  Redirected(uint32_t server_epoch, uint16_t leader_hint)
      : std::runtime_error("rfp channel: redirected (stale epoch / not the primary)"),
        server_epoch_(server_epoch),
        leader_hint_(leader_hint) {}

  uint32_t server_epoch() const { return server_epoch_; }
  uint16_t leader_hint() const { return leader_hint_; }

 private:
  uint32_t server_epoch_;
  uint16_t leader_hint_;
};

// A response value that lives in the server's registered memory (a mem::Pool
// slab entry owned by a store) instead of the response ring. ServerSendZeroCopy
// publishes a descriptor pointing at it; the client fetches the value with one
// RDMA READ straight from the entry, so the server never copies value bytes.
//
// Lifetime contract (docs/memory.md): `pin` must keep the entry bytes from
// being overwritten or reused until the channel releases it — on the next
// request received on the same slot (which proves the client consumed the
// response), on a superseding send, or at channel destruction. A store that
// mutates a pinned entry in place violates the contract; under RFP_CHECK the
// race detector reports it as race.fetch_store on the entry range.
struct ZeroCopyRef {
  uint32_t rkey = 0;   // registered region holding the value
  size_t offset = 0;   // absolute offset of the value within that region
  uint32_t len = 0;    // value bytes
  uint32_t epoch = 0;  // entry reuse epoch (descriptive; travels to the client)
  std::shared_ptr<const void> pin;  // keeps the entry alive until released

  bool valid() const { return rkey != 0; }
};

// The Channel::Stats field table. Every statistic is listed once, as
// X(field, flush_gate); the struct declaration, Stats::Merge, and the
// destructor's flush into the metrics registry (as rfp.channel.<field>) all
// expand it, so no list can drift from another. A field registers as a metric
// only while its flush gate — an expression over the flushed Stats `s` — is
// true, which keeps fault-free, window=1 runs on an unchanged metric catalog.
//
// Recovery traffic is accounted apart from the primary-path counters so
// RoundTripsPerCall keeps the paper's Table-3 semantics: request_writes
// counts exactly one WRITE per issued call.
#define RFP_CHANNEL_COUNTERS(X)                                                  \
  X(calls, true)                                                                 \
  X(request_writes, true)    /* client_send RDMA WRITEs */                       \
  X(fetch_reads, true)       /* all client_recv RDMA READs */                    \
  X(failed_fetches, true)    /* READs that found no matching response */         \
  X(extra_fetches, true)     /* second READs because size > fetch size */        \
  X(reply_pushes, true)      /* server out-bound reply WRITEs */                 \
  X(switches_to_reply, true)                                                     \
  X(switches_to_fetch, true)                                                     \
  /* Fault recovery (docs/fault_injection.md). */                                \
  X(reconnects, s.reconnects)           /* RC pair replaced after a QP error */  \
  X(reissues, s.reissues)               /* re-sent: timeout, corruption, busy */ \
  X(corrupt_fetches, s.corrupt_fetches) /* checksum-mismatching responses */     \
  X(fetch_timeouts, s.fetch_timeouts)   /* calls whose fetch deadline expired */ \
  X(recovery_request_writes, s.recovery_request_writes) /* re-issued WRITEs */   \
  X(recovery_fetch_reads, s.recovery_fetch_reads) /* READs of abandoned tries */ \
  /* Overload protection (docs/overload.md). */                                  \
  X(busy_responses, s.busy_responses) /* BUSY shed notices the client saw */     \
  X(shed_admission, s.shed_admission) /* shed by admission control (server) */   \
  X(shed_deadline, s.shed_deadline)   /* shed as already expired (server) */     \
  X(breaker_opens, s.breaker_opens)   /* breaker closed/half-open -> open */     \
  /* Replication / failover (docs/replication.md). */                            \
  X(redirects, s.redirects)         /* REDIRECT responses the client saw */      \
  X(shed_redirect, s.shed_redirect) /* requests rejected with REDIRECT */        \
  /* Pipelining (docs/pipelining.md; zero on window=1 channels). */              \
  X(doorbell_batches, s.doorbell_batches) /* posting sweeps, one doorbell each */ \
  X(batched_ops, s.doorbell_batches)      /* follower WRs on a leader's bell */  \
  /* Coalesced fetching (docs/multicore.md). */                                  \
  X(coalesced_fetches, s.coalesced_fetches) /* spanning READs of fetch sweeps */ \
  X(coalesced_slots, s.coalesced_fetches)   /* pending slots those spans hit */  \
  /* Zero-copy GET (docs/memory.md). */                                          \
  X(zero_copy_sends, s.zero_copy_sends)     /* indirect descriptors published */ \
  X(zero_copy_fetches, s.zero_copy_sends)   /* client entry READs issued */      \
  X(zero_copy_bytes, s.zero_copy_sends)     /* value bytes moved uncopied */     \
  X(zero_copy_fallbacks, s.zero_copy_sends) /* copy-path sends (reply mode) */

// Histograms, same contract: the failed-retry count per completed
// remote-fetch call (Table 3); outstanding calls sampled at each SubmitCall
// and WRs per doorbell batch (window=1 channels record neither).
#define RFP_CHANNEL_HISTOGRAMS(X)          \
  X(retries_per_call, true)                \
  X(submit_window, s.doorbell_batches > 0) \
  X(batch_occupancy, s.doorbell_batches > 0)

class Channel {
 public:
  struct Stats {
#define RFP_CHANNEL_DECLARE_COUNTER(field, gate) uint64_t field = 0;
#define RFP_CHANNEL_DECLARE_HISTOGRAM(field, gate) sim::Histogram field;
    RFP_CHANNEL_COUNTERS(RFP_CHANNEL_DECLARE_COUNTER)
    RFP_CHANNEL_HISTOGRAMS(RFP_CHANNEL_DECLARE_HISTOGRAM)
#undef RFP_CHANNEL_DECLARE_COUNTER
#undef RFP_CHANNEL_DECLARE_HISTOGRAM

    // Adds every field of `other` (aggregating several channels' stats).
    void Merge(const Stats& other);

    // Average RDMA round trips needed per completed call (paper Section 4.3
    // reports 2.005 for Jakiro). Counts only primary-path traffic; recovery
    // traffic (re-issues and the fetches of abandoned attempts) is reported
    // by RecoveryRoundTripsPerCall. Fetch retries that resolve *within* an
    // attempt — including the ones a timeout-driven mode switch abandons —
    // stay in the numerator, as in the paper's own retry accounting.
    double RoundTripsPerCall() const {
      if (calls == 0) {
        return 0.0;
      }
      return static_cast<double>(request_writes + fetch_reads + reply_pushes) /
             static_cast<double>(calls);
    }

    // Extra round trips per call spent on fault/overload recovery.
    double RecoveryRoundTripsPerCall() const {
      if (calls == 0) {
        return 0.0;
      }
      return static_cast<double>(recovery_request_writes + recovery_fetch_reads) /
             static_cast<double>(calls);
    }
  };

  // Client circuit breaker state (docs/overload.md): kClosed passes calls
  // through, kOpen delays the next call until the open interval elapses,
  // kHalfOpen lets exactly one probe call decide between close and reopen.
  enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

  // Builds a channel between `client` and `server`: the request/response
  // rings on the server and the staging/landing rings on the client are
  // drawn from the nodes' shared mem::Pools (docs/memory.md) — setup and
  // teardown recycle registered memory instead of (de)registering MRs — and
  // connected by a dedicated RC queue pair.
  Channel(rdma::Fabric& fabric, rdma::Node& client, rdma::Node& server,
          const RfpOptions& options);

  // Flushes this channel's Stats into the default metrics registry, labeled
  // {client, server} by node name (channels with equal labels aggregate).
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // ---- Client-side primitives ----------------------------------------------

  // Sends one request message. Pairs 1:1 with a following ClientRecv.
  // `deadline_ns` is an absolute virtual-time deadline propagated to the
  // server in the request header; 0 falls back to now + call_deadline_ns
  // when that option is set (else no deadline). With the breaker open, the
  // send first waits out the remaining open interval (half-open probe).
  // Paper Table 2's primitive: SubmitCall + FlushCalls, keeping the handle.
  sim::Task<void> ClientSend(std::span<const std::byte> msg, sim::Time deadline_ns = 0);

  // Receives the response for the last ClientSend into `out`; returns the
  // payload size. `out` must hold at least max_message_bytes. Throws
  // DeadlineExceeded when the call's deadline expired (see class above);
  // transparently backs off and re-issues on BUSY(admission). AwaitCall on
  // the handle ClientSend kept.
  sim::Task<size_t> ClientRecv(std::span<std::byte> out);

  // ---- Pipelined call surface (docs/pipelining.md) -------------------------

  // Identifies one in-flight pipelined call: the request/response slot it
  // occupies and the wire sequence tag it was issued under.
  struct CallHandle {
    int slot = 0;
    uint16_t seq = 0;
  };

  // Stages one request into a free slot and returns its handle. On a
  // window=1 channel there is nothing to coalesce with, so the request is
  // written immediately; with window > 1 it stays staged until the next
  // FlushCalls/AwaitCall, so a burst of submits coalesces into one
  // doorbell-batched posting sweep. Throws when all `window` slots hold
  // in-flight calls.
  sim::Task<CallHandle> SubmitCall(std::span<const std::byte> msg,
                                   const CallOptions& opts = {});

  // Posts every staged request in one doorbell batch (the first WRITE pays
  // the full out-bound issue cost, followers the batched marginal). No-op
  // when nothing is staged (always, on window=1 channels); AwaitCall flushes
  // implicitly.
  sim::Task<void> FlushCalls();

  // Completes the call identified by `handle` into `out`; returns the
  // payload size. Fetch sweeps piggyback READs for every other in-flight
  // slot onto the awaited slot's doorbell, so responses land regardless of
  // await order. Same failure semantics as ClientRecv (DeadlineExceeded,
  // BUSY re-issue, checksum re-issue, mode switching — the paradigm switch
  // stays channel-level). The call's slot is free again once this returns
  // or throws.
  sim::Task<size_t> AwaitCall(CallHandle handle, std::span<std::byte> out);

  // Outstanding-call capacity of this channel (RfpOptions::window).
  int window() const { return options_.window; }

  // ---- Server-side primitives ----------------------------------------------

  // Pending (written but not yet consumed) requests across all slots: a
  // non-consuming peek sweep loops use to estimate backlog. Inline, like
  // NeedsReplyResend and server_visible_mode: sweeps call it per owned
  // channel.
  int PendingRequests() const {
    int pending = 0;
    for (int s = 0; s < options_.window; ++s) {
      const RequestHeader header = server_.Load<RequestHeader>(req_off(s));
      if (wire::UnpackStatus(header.size_status) && header.slot == s &&
          header.seq != sslot(s).last_recv_seq) {
        ++pending;
      }
    }
    return pending;
  }

  // Non-blocking poll of the request block. On success copies the payload
  // into `out`, stores its size in `*size`, and returns true.
  bool TryServerRecv(std::span<std::byte> out, size_t* size);

  // Absolute deadline carried by the last request TryServerRecv returned
  // (0 = none). The server checks it before dispatching the handler.
  uint64_t last_request_deadline_ns() const { return last_recv_deadline_ns_; }

  // Replication epoch carried by the last request TryServerRecv returned
  // (0 = legacy / not replication-aware). A gated RpcServer compares it to
  // its own epoch before dispatching (docs/replication.md).
  uint32_t last_request_epoch() const { return last_recv_epoch_; }

  // Publishes the response for the last received request.
  sim::Task<void> ServerSend(std::span<const std::byte> msg);

  // Publishes a header-only BUSY response for the last received request
  // instead of serving it: the request was shed (admission budget exhausted
  // or deadline already expired). `retry_after_us` hints when the client
  // should retry.
  sim::Task<void> ServerSendBusy(BusyReason reason, uint16_t retry_after_us);

  // Publishes a header-only REDIRECT response for the last received request:
  // this server is not the primary for the request's epoch. `epoch` is the
  // server's current epoch, `leader_hint` the node id of the believed leader
  // (travels in time_us). The client-side call throws Redirected.
  sim::Task<void> ServerSendRedirect(uint32_t epoch, uint16_t leader_hint);

  // Publishes a zero-copy response for the last received request: `prefix`
  // bytes are staged in the response slot as usual, but the value stays in
  // the registered entry `ref` names — the client collects it with one RDMA
  // READ of (ref.rkey, ref.offset, ref.len). The channel holds ref.pin until
  // the response is provably consumed (see ZeroCopyRef). The client's
  // ClientRecv/AwaitCall returns prefix + value assembled in order, so
  // handlers swap ServerSend for this without changing the client. When the
  // client is in server-reply mode the value is materialized once and pushed
  // through the regular copy path (prefix+value must then fit
  // max_message_bytes).
  sim::Task<void> ServerSendZeroCopy(std::span<const std::byte> prefix,
                                     const ZeroCopyRef& ref);

  // True when a response was stored locally but never pushed while the
  // client is (now) in server-reply mode — the switch race. Cheap; sweep
  // loops use it to gate MaybeResendAfterSwitch. Checks every slot.
  bool NeedsReplyResend() const { return !unsafe_switch_race_ && HasUnpushedReply(); }

  // NeedsReplyResend without the test-only switch-race knob: some stored
  // response is unpushed while the client is in server-reply mode, so a
  // sweep visit (resend or FlushServerPushes) would push it.
  bool HasUnpushedReply() const {
    if (server_visible_mode() != Mode::kServerReply) {
      return false;
    }
    for (const ServerSlot& ss : sslots_) {
      if (!ss.response_pushed && ss.last_resp_seq != 0) {
        return true;
      }
    }
    return false;
  }

  // Re-pushes every response stored locally before the client switched to
  // server-reply (closing the switch race). Server sweep loops call this
  // when NeedsReplyResend() is true.
  sim::Task<void> MaybeResendAfterSwitch();

  // ---- Batched reply publication (docs/multicore.md) -----------------------

  // When set, ServerSend/ServerSendBusy store the response locally but skip
  // the immediate reply push even in server-reply mode; the sweep publishes
  // everything at the end of its channel visit via FlushServerPushes. The
  // NeedsReplyResend/MaybeResendAfterSwitch safety net still covers a crash
  // or switch that interleaves a visit.
  void set_defer_server_pushes(bool defer) { defer_server_pushes_ = defer; }

  // Pushes every stored-but-unpushed reply-mode response in one doorbell
  // batch (the first WRITE pays the full out-bound issue cost, followers the
  // batched marginal — the server-side mirror of the client posting batch).
  // No-op in remote-fetch mode (responses are local stores) or when nothing
  // is unpushed; a lone push goes out unbatched.
  sim::Task<void> FlushServerPushes();

  // ---- Sweep ready set (docs/multicore.md §2) -------------------------------

  // Names the server sweep that must hear of every client WRITE into this
  // channel's request ring (request, re-issue, mode flip): RcOp and RcBatch
  // mark endpoint `index` of `server` ready when they post one. Installed
  // by RpcServer::AcceptChannel; unset, posting marks nothing.
  void set_sweep_hook(RpcServer* server, size_t index) {
    sweep_server_ = server;
    sweep_index_ = index;
  }

  // True when a sweep visit could find nothing to do here, now or later
  // without another WRITE: no request WRITE is posted but uncompleted, no
  // request is pending and no reply-mode response is unpushed. A sweep
  // drops the channel from its ready set after a visit that ends idle.
  bool SweepIdle() const {
    return request_writes_in_flight_ == 0 && PendingRequests() == 0 && !HasUnpushedReply();
  }

  // ---- Introspection ---------------------------------------------------------

  Mode client_mode() const { return mode_; }
  // Mode as currently visible to the server (via the request-block flag).
  Mode server_visible_mode() const {
    return static_cast<Mode>(server_.Load<uint8_t>(kRequestModeOffset));
  }
  BreakerState breaker_state() const { return breaker_state_; }
  const Stats& stats() const { return stats_; }
  // Retry-after hint (µs) carried by the last BUSY response this client
  // observed; backlog-derived by the server sweep (docs/overload.md).
  uint16_t last_retry_after_us() const { return last_retry_after_us_; }
  sim::BusyMeter& client_busy() { return client_busy_; }
  uint16_t last_server_time_us() const { return last_server_time_us_; }
  const RfpOptions& options() const { return options_; }

  // Adjusts F at runtime (used when the parameter selector re-tunes).
  void set_fetch_size(uint32_t f);

  // Replication epoch stamped into every request header this client issues
  // (bits 24-30 of size_status; 0 = legacy). Set by replication-aware
  // clients after resolving the leader; re-issues reuse the current value.
  void set_request_epoch(uint32_t epoch) { request_epoch_ = epoch & wire::kReqEpochMax; }
  uint32_t request_epoch() const { return request_epoch_; }

  // TEST ONLY (tests/explore corpus): drops the sequence-tag filter on
  // response acceptance, modelling a client that trusts any completed
  // response header. A late response from a superseded attempt (window
  // re-issue, crash re-issue) is then accepted as the current call's result;
  // the schedule explorer plus the linearizability oracle pin exactly that
  // bug. Never set in production paths.
  void set_unsafe_accept_stale_seq(bool unsafe) { unsafe_accept_stale_seq_ = unsafe; }

  // TEST ONLY (tests/explore corpus): disables the post-switch resend safety
  // net — NeedsReplyResend() reports nothing and MaybeResendAfterSwitch()
  // does nothing — modelling a server without the switch-race republish
  // (docs/overload.md). Schedules where the mode-switch WRITE lands after
  // the handler sampled the request block then strand the stored response.
  void set_unsafe_switch_race(bool unsafe) { unsafe_switch_race_ = unsafe; }

  rdma::Node* client_node() const { return client_node_; }
  rdma::Node* server_node() const { return server_node_; }

  // ---- Connection tier hooks (src/conn, docs/connections.md) ---------------

  // Severs the RC pair in place: both endpoints transition to the error
  // state, so every outstanding and future op on this channel completes with
  // a QP error, and the next client attempt takes the transparent reconnect
  // path (EnsureConnected + idempotent re-issue). Registered rings stay
  // untouched — a conn::ChannelCache eviction is therefore indistinguishable
  // from the QP failure the recovery machinery already handles.
  void Detach();

  // Registered bytes this channel pins across both nodes (the pool spans
  // backing its rings). conn::ChannelCache charges its byte capacity with
  // this.
  size_t registered_footprint_bytes() const { return server_span_.size + client_span_.size; }

  // Fault-injection targeting: the server-side region holding this channel's
  // [request block][response block] rings, and the offset of the response
  // ring within that (pool-shared) region. A corruption fault flips bytes at
  // rkey/offset (see fault::FaultPlan::CorruptRegion).
  uint32_t server_rkey() const { return server_.rkey(); }
  size_t request_offset() const { return server_.abs(0); }
  size_t response_offset() const { return server_.abs(resp_offset_); }
  size_t response_block_bytes() const { return block_bytes_; }

 private:
  bool adaptive() const { return options_.force_mode == RfpOptions::ForceMode::kAdaptive; }

  // The channel's view of one side's backing region. Rings live inside
  // pool-allocated spans of large shared arenas, so every ring offset the
  // protocol code computes is relative and shifts by `base` exactly at the
  // MR boundary: local/remote offsets of RC ops, raw loads/stores, and the
  // (rkey, offset) coordinates handed to the race checker (via abs()).
  struct RingView {
    rdma::MemoryRegion* mr = nullptr;
    size_t base = 0;

    uint32_t rkey() const { return mr->remote_key().rkey; }
    rdma::RemoteKey remote_key() const { return mr->remote_key(); }
    size_t abs(size_t off) const { return base + off; }
    template <typename T>
    T Load(size_t off) const {
      return mr->Load<T>(base + off);
    }
    template <typename T>
    void Store(size_t off, const T& value) {
      mr->Store<T>(base + off, value);
    }
    void WriteBytes(size_t off, std::span<const std::byte> src) {
      mr->WriteBytes(base + off, src);
    }
    void ReadBytes(size_t off, std::span<std::byte> dst) const {
      mr->ReadBytes(base + off, dst);
    }
    // Ring-relative whole view, so callers can subspan with ring offsets.
    std::span<const std::byte> bytes() const {
      return std::span<const std::byte>(mr->bytes()).subspan(base);
    }
  };

  // Slot layout: the server block is [req slot 0..W-1][resp slot 0..W-1] and
  // the client block mirrors it as [staging 0..W-1][landing 0..W-1]; W=1
  // degenerates to the paper's single request/response block pair.
  size_t req_off(int slot) const { return static_cast<size_t>(slot) * block_bytes_; }
  size_t land_off(int slot) const {
    return resp_offset_ + static_cast<size_t>(slot) * block_bytes_;
  }

  // Per-slot client call state.
  struct ClientSlot {
    enum class State : uint8_t { kFree, kStaged, kPosted };
    State state = State::kFree;
    uint16_t seq = 0;
    uint32_t req_bytes = 0;  // staged payload bytes, kept for re-issue
    sim::Time deadline = 0;  // absolute call deadline; 0 = none
    uint32_t fetch_override = 0;
    int failed = 0;              // failed fetches of the current attempt
    int reissues = 0;
    int corrupt = 0;
    int busy_streak = 0;
    uint64_t attempt_reads = 0;  // moved to recovery bucket on re-issue
    bool landing_ready = false;  // a matching response header landed
    uint64_t fetch_tick = 0;     // check_tick of the READ that landed it
    uint32_t fetched_len = 0;    // bytes that READ carried
    uint64_t breaker_epoch = 0;  // breaker epoch at submit (verdict filter)
  };

  // Per-slot server state.
  struct ServerSlot {
    uint16_t last_recv_seq = 0;
    uint16_t last_resp_seq = 0;
    bool response_pushed = true;
    sim::Time recv_time = 0;
    uint32_t last_resp_size = 0;
    bool last_resp_busy = false;
    // Zero-copy entry pin for this slot's outstanding response; released on
    // the next request received here or a superseding send.
    std::shared_ptr<const void> pin;
  };

  // One WR of a doorbell batch (see RcBatch): the slot it serves, the bytes
  // it moves, and — once RcBatch returns — its completion.
  struct BatchOp {
    int slot = 0;
    bool is_read = false;
    size_t local_off = 0;
    size_t remote_off = 0;
    uint32_t len = 0;
    rdma::WorkCompletion wc{};
  };

  // An RcBatch collecting completions: the wr_ids of its current posting
  // and the completions another batch on the same CQ popped for it.
  struct BatchWaiter {
    uint64_t first_wr_id = 0;
    size_t count = 0;
    std::vector<rdma::WorkCompletion> inbox;
  };

  uint32_t EffectiveFetch(uint32_t override_f) const;
  void FreeSlot(int slot);
  // AwaitCall's body; AwaitCall frees the slot when this throws.
  sim::Task<size_t> AwaitSlot(int slot, std::span<std::byte> out);
  // Posts all `ops` on the channel's RC pair in one doorbell batch (the
  // first WR pays the full issue cost, followers the batched marginal) and
  // collects their completions, reconnecting and re-posting unfinished ops
  // on a QP error. Stores each op's completion in its `wc`. A window=1
  // channel has nothing to batch: its ops go out one by one through RcOp
  // and book no doorbell batch. Concurrent batches on one channel (two
  // actors awaiting calls) share the send CQ: wr_ids come from the
  // channel-wide counter, and a completion one batch pops for another is
  // handed to its owner through batch_waiters_.
  sim::Task<void> RcBatch(bool from_client, std::vector<BatchOp>& ops, const char* what);
  // Hands `wc`, popped from `cq` by a batch it does not belong to, to the
  // batch that posted it; dropped when that batch already threw.
  void RouteForeignCompletion(const rdma::WorkCompletion& wc, rdma::CompletionQueue* cq);
  // One batched fetch sweep: READs the awaited slot first (it leads the
  // doorbell), piggybacking READs for every other in-flight fetch-mode slot.
  sim::Task<void> FetchSweep(int primary);
  // Polls the local landing block of `slot` until its reply arrives.
  sim::Task<size_t> AwaitReply(int slot, std::span<std::byte> out);
  // Re-sends the request of `slot` under a fresh sequence tag. The server
  // re-executes it (handlers are idempotent by the RFP contract: one request
  // block, one response block, last write wins).
  sim::Task<void> ReissueRequest(int slot);
  // Validates the checksum trailer of the response landed in `slot`.
  bool ChecksumOk(int slot, uint32_t size) const;
  // Publishes a header-only response (BUSY or REDIRECT) for the last
  // received request, pushing it like ServerSend: the single 8-byte store is
  // its own publication point, so a racing fetch sees either the old header
  // or the complete notice.
  sim::Task<void> ServerSendHeaderOnly(ResponseHeader header);
  // Books the response just stored in `slot`; true when it must be pushed
  // now (the client is in server-reply mode and pushes are not deferred).
  bool BookResponse(int slot, uint32_t size, bool header_only);
  // Pushes the response stored in `slot` to the client.
  sim::Task<void> PushReply(int slot);
  // Stages the indirect descriptor + prefix into response slot `slot` with
  // the regular publication order and publishes the entry range.
  void StageIndirect(int slot, uint16_t seq, uint16_t time_us,
                     std::span<const std::byte> prefix, const ZeroCopyRef& ref);
  // Client side of an indirect response: parses the descriptor staged at
  // ring offset `land`, copies the prefix, fetches the entry with one READ
  // (into a pool bounce span — the value can exceed the landing block), and
  // assembles prefix+value into `out`. Returns the total payload size.
  sim::Task<size_t> CompleteIndirect(size_t land, uint32_t staged_size,
                                     std::span<std::byte> out, const char* what);

  // Flips the channel to server-reply and tells the server (1-byte WRITE).
  sim::Task<void> SwitchToReply();
  // Books completion of a reply-mode call and evaluates switch-back.
  void FinishReplyCall(const ResponseHeader& header, uint64_t sent_epoch);

  // Books a client WRITE into the request ring as posted and marks the
  // channel ready on its sweep; the poster decrements
  // request_writes_in_flight_ once it holds the completion.
  void BeginRequestWrite();

  // ---- Fault recovery ------------------------------------------------------

  uint32_t ChecksumBytes() const {
    return options_.checksum_responses ? kChecksumBytes : 0;
  }
  // One RC op (read or write) between the channel's fixed regions with
  // transparent reconnect-and-retry on a QP-error completion. Throws after
  // max_reconnect_attempts or on any non-QP-error failure. Offsets are
  // ring-relative and shifted by the pooled span base at the MR boundary.
  sim::Task<rdma::WorkCompletion> RcOp(bool from_client, bool is_read, size_t local_off,
                                       size_t remote_off, uint32_t len, const char* what);
  // RcOp's loop on absolute targets: `local_mr` at `local_off` and the
  // remote region `remote_key` at `remote_off`. The zero-copy entry READ
  // uses it directly, from a pool bounce span to a store-owned entry.
  sim::Task<rdma::WorkCompletion> RcOpAt(bool from_client, bool is_read,
                                         rdma::MemoryRegion& local_mr, size_t local_off,
                                         rdma::RemoteKey remote_key, size_t remote_off,
                                         uint32_t len, const char* what);
  // Replaces the RC pair after `failed` completed with a QP error. A no-op
  // when another actor already replaced it; concurrent callers wait for the
  // in-flight reconnect instead of racing a second one.
  sim::Task<void> EnsureConnected(rdma::QueuePair* failed);

  // ---- Overload protection (docs/overload.md) ------------------------------

  // True while the R-based switch to server-reply is suppressed because a
  // BUSY response was observed within the last overload_override_calls
  // completed calls.
  bool OverloadSuppressesSwitch() const {
    return calls_since_busy_ < options_.overload_override_calls;
  }
  // Response-acceptance seq filter (see set_unsafe_accept_stale_seq).
  bool AcceptSeq(uint16_t header_seq, uint16_t expected) const {
    return unsafe_accept_stale_seq_ || header_seq == expected;
  }
  // Books one call outcome into the breaker window (bad = BUSY or fetch
  // timeout) and drives the state machine. `sent_epoch` is the breaker
  // epoch the call was sent under (stamped at SubmitCall): in
  // the half-open state only a call sent since the last open — the probe —
  // may deliver the verdict, so a stale call still draining from before
  // the outage can neither re-open the breaker a second time for the same
  // episode (double-counting breaker_opens) nor close it in the probe's
  // stead.
  void RecordBreakerOutcome(bool bad, uint64_t sent_epoch);
  // closed/half-open -> open: picks the jittered open interval.
  void OpenBreaker();
  // With the breaker open, sleeps out the open interval and arms the
  // half-open probe. No-op otherwise.
  sim::Task<void> MaybeAwaitBreaker();
  // Jittered sleep before re-issuing after the `nth_busy`-th consecutive
  // BUSY(admission) of this call.
  sim::Time BusyRetryDelay(uint16_t hint_us, int nth_busy);
  // Books a BUSY header observed for the current call; throws
  // DeadlineExceeded for BUSY(deadline). Shared by fetch and reply paths.
  void RecordBusyResponse(const ResponseHeader& header, uint64_t sent_epoch);
  // Moves this call's attempt-local fetch READs into the recovery bucket
  // (called when a re-issue abandons the attempt).
  void TransferAttemptReads(uint64_t* attempt_reads);
  void TraceBreaker(const char* what);

  sim::Engine& engine_;
  rdma::Fabric* fabric_;
  rdma::Node* client_node_;
  rdma::Node* server_node_;
  RfpOptions options_;
  rdma::QueuePair* client_qp_;  // client-side endpoint of the RC pair
  rdma::QueuePair* server_qp_;  // server-side endpoint of the RC pair
  std::shared_ptr<mem::Pool> server_pool_;  // keeps the arenas alive past the node
  std::shared_ptr<mem::Pool> client_pool_;
  mem::Span server_span_;  // pool span holding [request ring][response ring]
  mem::Span client_span_;  // pool span holding [staging ring][landing ring]
  RingView server_;        // ring-relative view of server_span_
  RingView client_;        // ring-relative view of client_span_
  size_t block_bytes_;     // bytes per block (header + max message)
  size_t resp_offset_;     // ring offset of the response block / landing

  // Client state.
  uint16_t seq_ = 0;
  uint32_t request_epoch_ = 0;  // stamped into every request header (0 = legacy)
  CallHandle last_call_;        // the call ClientSend issued, for ClientRecv
  bool reconnect_in_progress_ = false;
  Mode mode_ = Mode::kRemoteFetch;
  sim::Time reply_mode_since_ = 0;  // trace: start of the current reply-mode span
  int slow_streak_ = 0;
  int fast_streak_ = 0;
  uint16_t last_server_time_us_ = 0;
  sim::BusyMeter client_busy_;

  // Overload-protection client state.
  int calls_since_busy_ = 1 << 30;  // effectively "never saw BUSY"
  BreakerState breaker_state_ = BreakerState::kClosed;
  sim::Time breaker_open_until_ = 0;
  int breaker_window_calls_ = 0;
  int breaker_window_bad_ = 0;
  uint64_t breaker_epoch_ = 0;  // bumped on every open
  uint16_t last_retry_after_us_ = 0;
  sim::Rng rng_{0x4252};  // re-seeded per channel in the ctor

  // Slot state, one entry per window slot on each side.
  std::vector<ClientSlot> cslots_;
  std::vector<ServerSlot> sslots_;
  ClientSlot& cslot(int s) { return cslots_[static_cast<size_t>(s)]; }
  const ClientSlot& cslot(int s) const { return cslots_[static_cast<size_t>(s)]; }
  ServerSlot& sslot(int s) { return sslots_[static_cast<size_t>(s)]; }
  const ServerSlot& sslot(int s) const { return sslots_[static_cast<size_t>(s)]; }
  int staged_count_ = 0;
  int posted_count_ = 0;
  uint64_t next_wr_id_ = 0;                   // RcBatch wr_ids, never reused
  std::vector<BatchWaiter*> batch_waiters_;   // RcBatch calls collecting now
  int last_recv_slot_ = 0;  // slot of the request TryServerRecv returned
  int recv_rr_ = 0;         // round-robin start of the server's slot scan

  // Server state.
  uint64_t last_recv_deadline_ns_ = 0;
  uint32_t last_recv_epoch_ = 0;  // epoch of the last received request
  bool defer_server_pushes_ = false;  // see set_defer_server_pushes
  bool unsafe_accept_stale_seq_ = false;  // TEST ONLY, see setter
  bool unsafe_switch_race_ = false;       // TEST ONLY, see setter

  // Sweep ready-set hook (see set_sweep_hook).
  RpcServer* sweep_server_ = nullptr;
  size_t sweep_index_ = 0;
  int request_writes_in_flight_ = 0;  // posted, completion not yet collected

  Stats stats_;
};

}  // namespace rfp

#endif  // SRC_RFP_CHANNEL_H_
