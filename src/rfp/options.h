// Tunables of the Remote Fetching Paradigm (paper Section 3.2).

#ifndef SRC_RFP_OPTIONS_H_
#define SRC_RFP_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/time.h"

namespace rfp {

struct RfpOptions {
  // R: failed remote-fetch retries tolerated per call before the call counts
  // as "slow". The paper derives R <= N = 5 for its hardware.
  int retry_threshold = 5;

  // F: default fetch size in bytes, including the 8-byte response header.
  // One RDMA READ completes the call whenever header+payload <= F.
  // Must lie in [L, H] of the hardware profile; the paper uses 256 for
  // 32-byte values and 640 for mixed-size workloads.
  uint32_t fetch_size = 256;

  // Paradigm switch hysteresis: only fall back to server-reply after this
  // many *consecutive* calls exceeded retry_threshold (paper: two), so rare
  // stragglers do not flap the mode.
  int slow_calls_before_switch = 2;

  // Largest message (request or response payload) a channel can carry.
  uint32_t max_message_bytes = 8192 + 64;

  // ---- Pipelining (docs/pipelining.md) -------------------------------------

  // W: outstanding calls the channel supports via per-channel request and
  // response slot rings. 1 (the default) is the paper's one-call-at-a-time
  // channel, bit-for-bit identical to the pre-pipelining implementation;
  // window > 1 enables Channel::SubmitCall/AwaitCall with doorbell-batched
  // posting. Bounded by wire::kMaxWindow.
  int window = 1;

  // Coalesced fetch sweeps (docs/multicore.md): when a sweep has >= 2 slots
  // awaiting responses, issue ONE spanning READ that covers every pending
  // response slot between the lowest and highest index (whole blocks,
  // contiguous in the response ring) instead of one READ per slot. The
  // server's in-bound engine then serves ~1 op per call (the request WRITE)
  // plus a bandwidth-priced sliver per sweep, instead of 2 ops per call —
  // which is what lets pipelined fetch throughput approach the 11.26 MOPS
  // in-bound envelope instead of half of it. Coalesced sweeps read whole
  // response blocks, so fetch_size / per-call overrides only shape
  // uncoalesced sweeps (single pending slot). Off by default: per-slot
  // fetches reproduce the paper's Table-3 retry accounting exactly.
  bool coalesced_fetch = false;

  // Forces a fixed paradigm, disabling the hybrid switch. Used by the
  // ServerReply baseline ("Jakiro w/o switch" in Fig 14 uses kForceFetch).
  enum class ForceMode : uint8_t { kAdaptive, kForceFetch, kForceReply };
  ForceMode force_mode = ForceMode::kAdaptive;

  // ---- Fault tolerance (docs/fault_injection.md) ---------------------------
  // Everything below defaults to *off* / neutral: a channel built with
  // default options behaves bit-for-bit like one built before the fault
  // layer existed.

  // Deadline for one remote-fetch call, measured from the start of
  // ClientRecv. 0 disables. On expiry an adaptive channel falls back to
  // server-reply immediately (without waiting out the slow-call streak); a
  // forced-fetch channel re-issues the request instead and re-arms the
  // deadline.
  sim::Time fetch_timeout_ns = 0;

  // Bounded exponential backoff between fetch retries once a call has
  // exceeded retry_threshold failures: sleep initial, 2*initial, ... capped
  // at max. 0 disables (the paper's tight retry loop).
  sim::Time fetch_backoff_initial_ns = 0;
  sim::Time fetch_backoff_max_ns = 100 * 1000;

  // Appends an 8-byte checksum trailer to every response (see
  // wire::Checksum64). A mismatching fetch counts as corrupt; after
  // kCorruptFetchesBeforeReissue (channel.cc) consecutive corrupt
  // observations the client re-issues the request (idempotent re-execution
  // keyed by the wire seq tag). Grows each response block by kChecksumBytes.
  bool checksum_responses = false;

  // A QP-error completion triggers transparent reconnection (tear down the
  // RC pair, wait out the re-establishment handshake of kReconnectDelayNs in
  // channel.cc, retry the op). An op that still fails after
  // `max_reconnect_attempts` reconnects throws.
  int max_reconnect_attempts = 8;

  // ---- Overload protection (docs/overload.md) ------------------------------
  // Also default-off / neutral. BUSY responses can only appear when the
  // *server* enables admission control, so default channels never take any
  // of these paths.

  // Relative per-call deadline stamped (as an absolute virtual time) into
  // every request header. 0 disables. The server sheds requests whose
  // deadline expired before dispatch with BUSY(deadline); the client
  // surfaces both that and a deadline that expires while backing off as
  // DeadlineExceeded.
  sim::Time call_deadline_ns = 0;

  // Client circuit breaker (closed -> open -> half-open), driven by the
  // BUSY/timeout rate over tumbling windows of call outcomes; its window,
  // failure rate and open interval are constants in channel.h
  // (kBreakerWindow, kBreakerFailureRate, kBreakerOpenNs).
  bool breaker_enabled = false;
  uint64_t breaker_seed = 0x4252;  // "BR": jitter RNG, mixed per channel
};

// Per-call options for RpcClient::Call / SubmitCall (docs/pipelining.md §4).
// Collapses what used to be positional trailing parameters into named fields
// with neutral defaults; a default-constructed CallOptions reproduces the old
// `Call(rpc_id, request, response)` behavior exactly.
struct CallOptions {
  // Absolute-relative per-call deadline: the call throws DeadlineExceeded if
  // it is not complete within this many ns of issue. 0 falls back to the
  // channel-level RfpOptions::call_deadline_ns (which itself defaults to 0 =
  // no deadline).
  sim::Time deadline_ns = 0;

  // Per-call override of RfpOptions::fetch_size for this call's first fetch.
  // 0 = use the channel default. Clamped to the channel's response block.
  uint32_t fetch_size = 0;
};

struct ServerOptions {
  // Largest message any accepted channel may carry. The per-thread dispatch
  // buffers are sized once from this (suspended handlers hold spans into
  // them, so they must never reallocate).
  uint32_t max_message_bytes = 8192 + 64;
  // Seeds the straggler model (rpc.cc kStragglerProb), mixed with the node id.
  uint64_t straggler_seed = 0x5247;  // "RG"

  // ---- Admission control / overload shedding (docs/overload.md) ------------
  // Default-off: a server built with default options serves exactly as
  // before. Deadline shedding is independent of this switch — it activates
  // whenever a request header carries a nonzero deadline.

  // While a thread is overloaded, each sweep admits kAdmissionBudget
  // (rpc.h) requests; the rest receive BUSY(admission) with a retry-after
  // hint.
  bool admission_control = false;
  // Overload detector with watermark hysteresis: estimated queued work =
  // (channels with a pending request) x (EWMA of measured per-request
  // process time, floored at kDispatchCpuNs). Enter overload at >= hi,
  // leave at <= lo (lo <= hi enforced by ValidateOptions).
  sim::Time overload_hi_watermark_ns = 40 * 1000;
  sim::Time overload_lo_watermark_ns = 10 * 1000;

  // ---- Multi-core dispatch (docs/multicore.md) -----------------------------
  // Every worker charges all sweep CPU (poll, dispatch, copy, process, shed)
  // to a core of its own. Default off: that core is private to the worker,
  // so workers never contend, bit-for-bit the pre-multicore server.

  // Make the worker cores real: pin each worker to a node core reserved via
  // rdma::Node::ReserveWorkerCore, so workers sharing a core contend. Only
  // a multicore server steals work (bounded by kMaxStealsPerSweep and
  // kStealMinBacklog) and batches reply publication (rpc.cc).
  bool multicore = false;
};

// Throw std::invalid_argument when an option set is inconsistent (negative
// times, watermark lo > hi, a window outside [1, kMaxWindow], ...). Channel
// and RpcServer constructors enforce these, mirroring rdma::ValidateConfig.
void ValidateOptions(const RfpOptions& options);
void ValidateOptions(const ServerOptions& options);

// A channel slot (request header + max payload + optional checksum trailer),
// and the 2 * window slots a channel registers on each side.
size_t ChannelSlotBytes(const RfpOptions& options);
size_t ChannelRingBytes(const RfpOptions& options);

}  // namespace rfp

#endif  // SRC_RFP_OPTIONS_H_
