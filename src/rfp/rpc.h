// RPC on top of RFP channels (paper Fig 2 / Section 3.1).
//
// The server registers handlers by id; each server worker sweeps the
// channels it currently owns (EREW at any instant: a channel belongs to
// exactly one worker), dispatches requests, and publishes responses through
// Channel::ServerSend — which transparently follows whatever paradigm the
// client side of the channel is in. Clients call through RpcClient stubs
// exactly as they would with a socket-based RPC library; this is the
// "legacy interface" property the paper claims.
//
// Each worker busy-polls on a core of its own (paper Section 4.1) and
// charges all sweep CPU (poll, shed, dispatch + process) to it with
// sim::Resource::Use. By default that core is private to the worker, so
// workers never contend. With ServerOptions::multicore it is a pinned node
// core from the sim::CpuSet (reserved via Node::ReserveWorkerCore with
// NIC-station affinity, shared when workers outnumber cores), hot or
// orphaned channels migrate between workers between sweeps, and each
// channel visit publishes its completed reply-mode slots in one doorbell
// batch — see docs/multicore.md.
//
// Message format: request = [uint16 rpc_id][payload]; response = [payload].

#ifndef SRC_RFP_RPC_H_
#define SRC_RFP_RPC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/sim/random.h"
#include "src/sim/resource.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

namespace rfp {

// What a handler produced: the response payload size (already written into
// the response span) and the simulated compute time the request costs on the
// server (the paper's "request process time" P).
//
// A handler that owns its value in registered memory may return it zero-copy
// instead of copying it into the response span: set `zero_copy` to the entry
// (see ZeroCopyRef's lifetime contract) and write only the prefix bytes —
// headers, found/miss flags — into the response span, with response_size
// counting just those prefix bytes. The server then publishes an indirect
// descriptor and the value never crosses its CPU; the client receives
// prefix + value assembled in order.
struct HandlerResult {
  size_t response_size = 0;
  sim::Time process_ns = 0;
  ZeroCopyRef zero_copy;  // invalid (default) = regular copied response

  HandlerResult() = default;
  HandlerResult(size_t size, sim::Time ns) : response_size(size), process_ns(ns) {}
  HandlerResult(size_t size, sim::Time ns, ZeroCopyRef zc)
      : response_size(size), process_ns(ns), zero_copy(std::move(zc)) {}
};

// Execution context a handler runs under. thread_index identifies the server
// thread, which EREW-partitioned applications (Jakiro) use to select their
// per-thread data partition.
struct HandlerContext {
  int thread_index = 0;
};

using Handler = std::function<HandlerResult(const HandlerContext& ctx,
                                            std::span<const std::byte> request,
                                            std::span<std::byte> response)>;

// Coroutine handler: may suspend (acquire simulated locks, stage multi-step
// updates). Used by the Pilaf and Memcached baselines.
using AsyncHandler = std::function<sim::Task<HandlerResult>(const HandlerContext& ctx,
                                                            std::span<const std::byte> request,
                                                            std::span<std::byte> response)>;

class RpcServer {
 public:
  RpcServer(rdma::Fabric& fabric, rdma::Node& node, int num_threads, ServerOptions options = {});

  // Flushes requests-served counters into the default metrics registry,
  // labeled {node}. Channels flush their own stats as they are destroyed.
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  rdma::Node& node() { return node_; }
  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Registers the handler for `rpc_id`. Must happen before Start().
  void RegisterHandler(uint16_t rpc_id, Handler handler);
  void RegisterAsyncHandler(uint16_t rpc_id, AsyncHandler handler);

  // Creates a channel from `client` to this server, served by `thread`.
  // The returned channel is owned by the server and lives as long as it
  // (or until CloseChannel). Throws std::out_of_range for a thread outside
  // [0, num_threads()) and std::invalid_argument when the channel's
  // max_message_bytes exceeds the server's; a rejected accept builds nothing.
  Channel* AcceptChannel(rdma::Node& client, const RfpOptions& options, int thread);

  // ---- Connection tier (src/conn, docs/connections.md) ---------------------

  // Destroys a channel previously returned by AcceptChannel: it leaves the
  // dispatch sweep and its rings return to the node pools (no MR is
  // deregistered — see docs/memory.md). When the channel's visit is
  // currently suspended mid-handler (busy fence), destruction is deferred to
  // the end of that visit, so a handler never loses the channel under its
  // feet. The caller must guarantee no client-side actor still uses the
  // channel; conn::ChannelCache detaches first when one might. Returns false
  // when this server does not own `channel`.
  bool CloseChannel(Channel* channel);

  // Handler lookup for out-of-band transports: the pooled connection tier
  // dispatches through the same handler table the channel sweep uses, so an
  // application's handlers serve pooled and dedicated clients alike.
  // Returns nullptr when no handler is registered for `rpc_id`.
  const AsyncHandler* FindHandler(uint16_t rpc_id) const;

  // Channels destroyed via CloseChannel (immediate + deferred).
  uint64_t channels_closed() const { return channels_closed_; }

  // Spawns one sweep actor per server thread.
  void Start();

  // Requests loops to exit at their next sweep.
  void Stop() { stop_ = true; }

  // ---- Fault injection (src/fault/) ---------------------------------------

  // Crashes worker `thread`: from its next sweep boundary it stops serving
  // (its channels go dark — in-flight fetches fail or fall back, depending
  // on the client's fault-tolerance options) until RestartThread. A request
  // already mid-handler completes first; the crash takes effect between
  // requests, which models a worker whose core is lost, not one whose
  // memory is torn mid-write. Under multicore + work_stealing the surviving
  // workers claim the crashed worker's channels at their next sweeps, so the
  // dark window lasts sweeps, not the whole outage. Idempotent.
  void CrashThread(int thread);

  // Brings a crashed worker back. Its next sweep picks up whatever request
  // headers are pending in its channels' request blocks, so requests issued
  // into the dark window complete after recovery without client re-sends.
  void RestartThread(int thread);

  bool thread_crashed(int thread) const {
    return threads_[static_cast<size_t>(thread)].crashed;
  }
  uint64_t thread_crashes() const { return thread_crashes_; }

  uint64_t requests_served() const { return requests_served_; }
  uint64_t requests_served_by(int thread) const {
    return threads_[static_cast<size_t>(thread)].served;
  }

  // ---- Replication epoch gate (docs/replication.md) ------------------------

  // Marks `rpc_id` as epoch-gated: before dispatch, a gated request's header
  // epoch (RequestHeader bits 24-30) is compared to this server's epoch, and
  // a mismatch — or a server that is not serving at all — is rejected with a
  // header-only REDIRECT instead of running the handler. Ungated ids (the
  // replication stream itself, health probes) always dispatch. Call at
  // setup, alongside RegisterHandler.
  void GateRpc(uint16_t rpc_id) { gated_rpcs_.insert(rpc_id); }

  // Updates the gate's view: `serving` is whether this node believes it is
  // the primary, `epoch` its current epoch, `leader_hint` the node id it
  // believes leads (echoed in redirects). A server with no gated rpc ids
  // ignores this entirely.
  void SetReplGate(bool serving, uint32_t epoch, uint16_t leader_hint) {
    repl_serving_ = serving;
    repl_epoch_ = epoch;
    repl_leader_hint_ = leader_hint;
  }

  bool repl_serving() const { return repl_serving_; }
  uint32_t repl_epoch() const { return repl_epoch_; }
  // Requests rejected with REDIRECT by the epoch gate.
  uint64_t requests_shed_redirect() const { return requests_shed_redirect_; }

  // ---- Overload protection (docs/overload.md) ------------------------------

  // True while `thread`'s watermark detector holds the overloaded state.
  bool thread_overloaded(int thread) const {
    return threads_[static_cast<size_t>(thread)].overloaded;
  }
  // Requests shed with BUSY(admission) / BUSY(deadline), summed over threads.
  uint64_t requests_shed_admission() const { return requests_shed_admission_; }
  uint64_t requests_shed_deadline() const { return requests_shed_deadline_; }
  // Times any thread's detector entered the overloaded state.
  uint64_t overload_enters() const { return overload_enters_; }

  // ---- Sweep hardening / multi-core dispatch (docs/multicore.md) -----------

  // Requests dropped instead of dispatched: runt requests (shorter than the
  // rpc id), unknown rpc ids, and oversized/corrupt size fields. A malformed
  // request must never kill the sweep actor — it is counted, traced, and the
  // rest of the sweep is served.
  uint64_t malformed_requests() const { return malformed_requests_; }

  // TEST ONLY (tests/explore corpus): lets the steal scan cross the busy
  // fence, modelling a dispatcher that forgets a visit can be suspended
  // mid-handler. Two workers then sweep one channel concurrently in some
  // schedules — the thief's recv clobbers the victim's slot cursor and a
  // response goes out with the wrong payload. The schedule explorer pins
  // exactly that bug; never set in production paths.
  void set_unsafe_steal_busy_channels(bool unsafe) { unsafe_steal_busy_ = unsafe; }

  // Channel migrations between workers (orphan claims + load steals).
  uint64_t channel_steals() const { return channel_steals_; }
  uint64_t thread_steals(int thread) const {
    return threads_[static_cast<size_t>(thread)].steals;
  }
  // Marks ready every channel of this server whose request ring overlaps
  // bytes [offset, offset + len) of registered region `rkey`, so the sweep
  // re-reads what a write outside the WRITE path changed there
  // (fault::FaultInjector::Corrupt). Scans all endpoints: fault path only.
  void MarkRequestRingsTouched(uint32_t rkey, size_t offset, size_t len);

  // Channels currently owned by `thread`'s sweep.
  int channels_owned_by(int thread) const {
    return threads_[static_cast<size_t>(thread)].owned;
  }
  // Core the worker is pinned to under multicore (-1 when not multicore).
  int thread_core(int thread) const {
    return threads_[static_cast<size_t>(thread)].core;
  }

  // Stable trace-track id for worker `thread`: a tagged (server ordinal,
  // thread) encoding, NOT derived from `this`. The old
  // reinterpret_cast<uint64_t>(this) + thread scheme could collide across
  // servers (one server's base + k aliases a neighbor allocated k bytes
  // away); ordinals are process-unique and threads are < 2^16.
  uint64_t worker_track_id(int thread) const {
    return (uint64_t{0x5257} << 48) |  // "RW" tag, clear of heap pointers
           (server_ordinal_ << 16) | static_cast<uint64_t>(thread & 0xffff);
  }

 private:
  struct ThreadState {
    uint64_t served = 0;
    bool crashed = false;
    std::vector<std::byte> request_buf;
    std::vector<std::byte> response_buf;
    // Overload detector state (ServerOptions admission_control):
    double process_ewma_ns = 0;  // EWMA of measured per-request process time
    bool overloaded = false;
    // The core every CPU charge of this worker's sweep (poll, shed,
    // process) runs on: the pinned node core under multicore, else own_cpu.
    sim::Resource* cpu = nullptr;
    std::unique_ptr<sim::Resource> own_cpu;
    // Multi-core dispatch state:
    int core = -1;        // CpuSet core this worker is pinned to
    uint64_t steals = 0;  // channels this worker claimed from others
    // Live channels this worker owns, kept by AcceptChannel, StealChannel
    // and DestroyChannel; sets the poll charge and the steal balance.
    int owned = 0;
    // Ready set: a bitset over endpoints_ indices holding every owned
    // channel a visit could find work on (see docs/multicore.md §2). The
    // sweep visits only these, in index (= acceptance) order, so its host
    // work is O(ready), not O(owned).
    std::vector<uint64_t> ready;
  };

  // A served channel and the worker that currently sweeps it. EREW at any
  // instant: `owner` names the only worker that may touch the channel, and
  // `busy` fences a visit in progress (visits suspend, so a steal decided
  // mid-visit would otherwise hand two workers the same channel).
  // `channel == nullptr` marks a closed entry: it stays in endpoints_ (ready
  // sets and suspended visits hold indices, so erasing would shift them) but
  // no worker owns it. `closing` defers a CloseChannel that raced an
  // in-progress visit.
  struct ChannelEntry {
    Channel* channel = nullptr;
    int owner = 0;
    bool busy = false;
    bool closing = false;
  };

  friend class Channel;  // posts request WRITEs through MarkReady

  sim::Task<void> ServeLoop(int thread_index);
  // Adds endpoints_[index] to its owner's ready set. O(1): called on every
  // request WRITE post (Channel::BeginRequestWrite).
  void MarkReady(size_t index);
  // Under a fabric checker: reports every owned channel outside the ready
  // set that a visit would find work on, then marks it ready so the sweep
  // still serves it. Scans the whole table, which only checked runs pay.
  void CheckReadySet(int thread_index);
  // Frees endpoints_[index]'s channel (rings back to the pools), tombstones
  // the entry and drops it from its owner's count and ready set.
  void DestroyChannel(size_t index);
  void RecordMalformedRequest(int thread_index, const char* why);
  // Moves endpoints_[index] (its count and ready bit) from its owner to
  // `thief`; `why` labels the trace instant ("orphan_claim" /
  // "channel_steal").
  void StealChannel(size_t index, int thief, const char* why);

  rdma::Fabric& fabric_;
  rdma::Node& node_;
  ServerOptions options_;
  sim::Rng straggler_rng_;
  bool stop_ = false;
  bool started_ = false;
  bool unsafe_steal_busy_ = false;  // TEST ONLY, see setter
  uint64_t server_ordinal_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t thread_crashes_ = 0;
  int crashed_threads_ = 0;  // workers crashed right now (gates the orphan scan)
  uint64_t requests_shed_admission_ = 0;
  uint64_t requests_shed_deadline_ = 0;
  uint64_t overload_enters_ = 0;
  uint64_t malformed_requests_ = 0;
  uint64_t channel_steals_ = 0;
  uint64_t channels_closed_ = 0;
  // Replication epoch gate (docs/replication.md). Empty gated_rpcs_ = the
  // legacy single-node server; the defaults below then never matter.
  std::unordered_set<uint16_t> gated_rpcs_;
  bool repl_serving_ = true;
  uint32_t repl_epoch_ = 0;
  uint16_t repl_leader_hint_ = 0;
  uint64_t requests_shed_redirect_ = 0;
  std::unordered_map<uint16_t, AsyncHandler> handlers_;
  std::vector<ThreadState> threads_;
  // All accepted channels in acceptance order; each worker's sweep visits
  // the subsequence its ready set names, preserving the legacy per-thread
  // order.
  std::vector<ChannelEntry> endpoints_;
  std::vector<std::unique_ptr<Channel>> owned_channels_;
};

class RpcClient {
 public:
  explicit RpcClient(Channel* channel);

  // Flushes call count and latency into the default metrics registry,
  // labeled {client} by the channel's client node.
  ~RpcClient();

  Channel* channel() { return channel_; }

  // Invokes `rpc_id` with `request`, writing the response payload into
  // `response` and returning its size. Per-call knobs — the propagated
  // deadline and the fetch-size override — travel in `options` as named
  // fields (see rfp::CallOptions); a default-constructed CallOptions
  // reproduces the plain three-argument call exactly. Throws
  // DeadlineExceeded when the call's deadline expires before the response
  // (see Channel::ClientRecv).
  sim::Task<size_t> Call(uint16_t rpc_id, std::span<const std::byte> request,
                         std::span<std::byte> response, const CallOptions& options = {});

  // ---- Pipelined calls (docs/pipelining.md) --------------------------------

  // Stages one call and returns its handle without waiting for the
  // response; on a channel with RfpOptions::window > 1 up to `window` calls
  // can be in flight, and a burst of submits is posted in one doorbell
  // batch by the next AwaitCall (or Channel::FlushCalls). Throws when the
  // window is full.
  sim::Task<Channel::CallHandle> SubmitCall(uint16_t rpc_id,
                                            std::span<const std::byte> request,
                                            const CallOptions& options = {});

  // Completes a submitted call into `response`, returning the payload size.
  // Calls may be awaited in any order.
  sim::Task<size_t> AwaitCall(Channel::CallHandle handle, std::span<std::byte> response);

  uint64_t calls() const { return calls_; }
  const sim::Histogram& latency() const { return latency_; }

 private:
  Channel* channel_;
  uint64_t calls_ = 0;
  sim::Histogram latency_;
  std::vector<std::byte> scratch_;
  // Submit time per slot, for end-to-end latency of pipelined calls.
  std::vector<sim::Time> submit_start_;
};

}  // namespace rfp

#endif  // SRC_RFP_RPC_H_
