#include "src/rfp/rpc.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/check/checker.h"
#include "src/obs/metrics.h"
#include "src/rfp/wire.h"

namespace rfp {

namespace {

constexpr size_t kRpcIdBytes = sizeof(uint16_t);

// Process-unique server ordinal for worker trace-track ids (see
// RpcServer::worker_track_id). Monotonic, never reused — unlike heap
// addresses, which the old this-pointer-derived ids leaned on.
uint64_t NextServerOrdinal() {
  static uint64_t next = 0;
  return ++next;
}

// Ready sets (ThreadState::ready) are bitsets over endpoints_ indices, sized
// by AcceptChannel to cover every endpoint.
constexpr size_t kNoBit = ~size_t{0};

bool TestBit(const std::vector<uint64_t>& bits, size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1;
}

void SetBit(std::vector<uint64_t>& bits, size_t i) { bits[i / 64] |= uint64_t{1} << (i % 64); }

// Clears bit `i`; returns whether it was set.
bool ClearBit(std::vector<uint64_t>& bits, size_t i) {
  const bool was = TestBit(bits, i);
  bits[i / 64] &= ~(uint64_t{1} << (i % 64));
  return was;
}

// The lowest set bit at or above `from`, or kNoBit.
size_t NextBit(const std::vector<uint64_t>& bits, size_t from) {
  size_t w = from / 64;
  if (w >= bits.size()) {
    return kNoBit;
  }
  uint64_t word = bits[w] & (~uint64_t{0} << (from % 64));
  while (word == 0) {
    if (++w == bits.size()) {
      return kNoBit;
    }
    word = bits[w];
  }
  return w * 64 + static_cast<size_t>(std::countr_zero(word));
}

}  // namespace

RpcServer::RpcServer(rdma::Fabric& fabric, rdma::Node& node, int num_threads,
                     ServerOptions options)
    : fabric_(fabric), node_(node), options_(options),
      straggler_rng_(options.straggler_seed ^ node.id()),
      server_ordinal_(NextServerOrdinal()),
      threads_(static_cast<size_t>(num_threads)) {
  ValidateOptions(options_);
  for (ThreadState& state : threads_) {
    state.request_buf.resize(options_.max_message_bytes);
    state.response_buf.resize(options_.max_message_bytes);
    if (options_.multicore) {
      // Pin each worker to a core from the node's worker range (above the
      // NIC-station reservation); with more workers than cores, workers
      // share cores and contend on them.
      state.core = node_.ReserveWorkerCore();
      state.cpu = &node_.cpus().core(state.core);
    } else {
      // A dedicated core nothing else charges: the worker never waits for it.
      state.own_cpu = std::make_unique<sim::Resource>(fabric_.engine(), 1);
      state.cpu = state.own_cpu.get();
    }
  }
  if (sim::TraceSink* trace = fabric_.engine().trace_sink()) {
    for (int t = 0; t < num_threads; ++t) {
      trace->NameTrack(worker_track_id(t),
                       node_.name() + " rpc worker " + std::to_string(t));
    }
  }
}

RpcServer::~RpcServer() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("rfp.rpc.requests_served", {{"node", node_.name()}})->Add(requests_served_);
  if (thread_crashes_ > 0) {
    reg.GetCounter("rfp.rpc.thread_crashes", {{"node", node_.name()}})->Add(thread_crashes_);
  }
  // Overload counters register only when shedding actually happened, so
  // runs without overload keep their metric catalog unchanged.
  if (requests_shed_admission_ > 0) {
    reg.GetCounter("rfp.rpc.shed_admission", {{"node", node_.name()}})
        ->Add(requests_shed_admission_);
  }
  if (requests_shed_deadline_ > 0) {
    reg.GetCounter("rfp.rpc.shed_deadline", {{"node", node_.name()}})
        ->Add(requests_shed_deadline_);
  }
  if (overload_enters_ > 0) {
    reg.GetCounter("rfp.rpc.overload_enters", {{"node", node_.name()}})->Add(overload_enters_);
  }
  if (malformed_requests_ > 0) {
    reg.GetCounter("rfp.rpc.malformed_requests", {{"node", node_.name()}})
        ->Add(malformed_requests_);
  }
  if (channel_steals_ > 0) {
    reg.GetCounter("rfp.rpc.channel_steals", {{"node", node_.name()}})->Add(channel_steals_);
  }
  if (requests_shed_redirect_ > 0) {
    reg.GetCounter("rfp.rpc.shed_redirect", {{"node", node_.name()}})
        ->Add(requests_shed_redirect_);
  }
}

bool RpcServer::CloseChannel(Channel* channel) {
  for (size_t ci = 0; ci < endpoints_.size(); ++ci) {
    ChannelEntry& entry = endpoints_[ci];
    if (entry.channel != channel || channel == nullptr) {
      continue;
    }
    if (entry.busy) {
      // A visit is suspended inside this channel; the sweep destroys it when
      // the visit ends (see ServeLoop).
      entry.closing = true;
      return true;
    }
    DestroyChannel(ci);
    return true;
  }
  return false;
}

void RpcServer::DestroyChannel(size_t index) {
  ChannelEntry& entry = endpoints_[index];
  Channel* channel = entry.channel;
  // Tombstone rather than erase: ready sets and suspended sweeps hold
  // endpoints_ indices, which must not shift.
  entry.channel = nullptr;
  entry.closing = false;
  ThreadState& owner = threads_[static_cast<size_t>(entry.owner)];
  --owner.owned;
  ClearBit(owner.ready, index);
  for (auto it = owned_channels_.begin(); it != owned_channels_.end(); ++it) {
    if (it->get() == channel) {
      // ~Channel flushes its stats and returns the ring spans to the node
      // pools — no MR is deregistered (docs/memory.md).
      owned_channels_.erase(it);
      break;
    }
  }
  ++channels_closed_;
}

const AsyncHandler* RpcServer::FindHandler(uint16_t rpc_id) const {
  auto it = handlers_.find(rpc_id);
  return it == handlers_.end() ? nullptr : &it->second;
}

void RpcServer::RecordMalformedRequest(int thread_index, const char* why) {
  ++malformed_requests_;
  if (sim::TraceSink* trace = fabric_.engine().trace_sink()) {
    trace->Instant("rfp", std::string("malformed_request:") + why,
                   worker_track_id(thread_index), fabric_.engine().now());
  }
}

void RpcServer::StealChannel(size_t index, int thief, const char* why) {
  ChannelEntry& entry = endpoints_[index];
  // A ready channel stays ready under its new owner. Ready sets are ordered
  // by index, so the thief visits the stolen channel in acceptance order
  // among its own, exactly where an all-endpoints scan would.
  ThreadState& victim = threads_[static_cast<size_t>(entry.owner)];
  ThreadState& taker = threads_[static_cast<size_t>(thief)];
  --victim.owned;
  ++taker.owned;
  if (ClearBit(victim.ready, index)) {
    SetBit(taker.ready, index);
  }
  entry.owner = thief;
  ++channel_steals_;
  ++threads_[static_cast<size_t>(thief)].steals;
  if (sim::TraceSink* trace = fabric_.engine().trace_sink()) {
    trace->Instant("rfp", why, worker_track_id(thief), fabric_.engine().now());
  }
}

void RpcServer::MarkReady(size_t index) {
  SetBit(threads_[static_cast<size_t>(endpoints_[index].owner)].ready, index);
}

void RpcServer::MarkRequestRingsTouched(uint32_t rkey, size_t offset, size_t len) {
  for (size_t ci = 0; ci < endpoints_.size(); ++ci) {
    const Channel* channel = endpoints_[ci].channel;
    // The request ring is [request_offset, response_offset) of the region.
    if (channel != nullptr && channel->server_rkey() == rkey &&
        offset < channel->response_offset() && channel->request_offset() < offset + len) {
      MarkReady(ci);
    }
  }
}

void RpcServer::CheckReadySet(int thread_index) {
  const ThreadState& state = threads_[static_cast<size_t>(thread_index)];
  for (size_t ci = 0; ci < endpoints_.size(); ++ci) {
    const Channel* channel = endpoints_[ci].channel;
    if (channel == nullptr || endpoints_[ci].owner != thread_index || TestBit(state.ready, ci)) {
      continue;
    }
    const int pending = channel->PendingRequests();
    const bool unpushed_reply = channel->HasUnpushedReply();
    if (pending > 0 || unpushed_reply) {
      fabric_.checker()->OnSweepMissedRequest(channel, pending, unpushed_reply);
      MarkReady(ci);
    }
  }
}

void RpcServer::CrashThread(int thread) {
  ThreadState& state = threads_[static_cast<size_t>(thread)];
  if (state.crashed) {
    return;
  }
  state.crashed = true;
  ++thread_crashes_;
  ++crashed_threads_;
  if (sim::TraceSink* trace = fabric_.engine().trace_sink()) {
    trace->Instant("fault", "server_thread_crash", worker_track_id(thread),
                   fabric_.engine().now());
  }
}

void RpcServer::RestartThread(int thread) {
  ThreadState& state = threads_[static_cast<size_t>(thread)];
  if (!state.crashed) {
    return;
  }
  state.crashed = false;
  --crashed_threads_;
  if (sim::TraceSink* trace = fabric_.engine().trace_sink()) {
    trace->Instant("fault", "server_thread_restart", worker_track_id(thread),
                   fabric_.engine().now());
  }
}

namespace {

// Lifts a synchronous handler into the coroutine calling convention. The
// handler is copied into the frame as a parameter, so it cannot dangle.
sim::Task<HandlerResult> RunSyncHandler(Handler handler, HandlerContext ctx,
                                        std::span<const std::byte> request,
                                        std::span<std::byte> response) {
  co_return handler(ctx, request, response);
}

}  // namespace

void RpcServer::RegisterHandler(uint16_t rpc_id, Handler handler) {
  handlers_[rpc_id] = [h = std::move(handler)](const HandlerContext& ctx,
                                               std::span<const std::byte> request,
                                               std::span<std::byte> response) {
    return RunSyncHandler(h, ctx, request, response);
  };
}

void RpcServer::RegisterAsyncHandler(uint16_t rpc_id, AsyncHandler handler) {
  handlers_[rpc_id] = std::move(handler);
}

Channel* RpcServer::AcceptChannel(rdma::Node& client, const RfpOptions& options, int thread) {
  // Validate before building: a rejected accept must leave no channel (rings,
  // QPs) behind.
  if (thread < 0 || thread >= num_threads()) {
    throw std::out_of_range("rfp rpc: AcceptChannel thread out of range");
  }
  // Dispatch buffers are fixed-size (suspended handlers hold spans into
  // them), so every channel's messages must fit the server-wide bound.
  if (options.max_message_bytes > options_.max_message_bytes) {
    throw std::invalid_argument(
        "rfp rpc: channel max_message_bytes exceeds ServerOptions.max_message_bytes");
  }
  owned_channels_.push_back(std::make_unique<Channel>(fabric_, client, node_, options));
  Channel* channel = owned_channels_.back().get();
  if (options_.multicore && options_.batch_reply_publication) {
    channel->set_defer_server_pushes(true);
  }
  endpoints_.push_back(ChannelEntry{channel, thread, false});
  const size_t index = endpoints_.size() - 1;
  ++threads_[static_cast<size_t>(thread)].owned;
  // Every worker's ready set covers every endpoint, so marking and steals
  // never resize one. A fresh channel is idle (zeroed rings): not ready.
  for (ThreadState& state : threads_) {
    state.ready.resize(index / 64 + 1);
  }
  channel->set_sweep_hook(this, index);
  return channel;
}

void RpcServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (int t = 0; t < num_threads(); ++t) {
    fabric_.engine().Spawn(ServeLoop(t));
  }
}

sim::Task<void> RpcServer::ServeLoop(int thread_index) {
  sim::Engine& engine = fabric_.engine();
  ThreadState& state = threads_[static_cast<size_t>(thread_index)];
  while (!stop_) {
    if (state.crashed) {
      // The worker is dead: it burns no poll CPU and serves nothing. Pending
      // request headers stay in the channels' request blocks (NIC and memory
      // are alive — only the core is gone) and are served after restart or,
      // under multicore work stealing, when a surviving worker claims them.
      co_await engine.Sleep(options_.idle_sleep_ns);
      continue;
    }
    bool any = false;
    // One scan over this worker's channels costs CPU whether or not
    // anything arrived (the server busy-polls, paper Section 4.1). Like
    // every CPU charge of the sweep it runs on the worker's core, so workers
    // sharing a pinned core queue behind each other.
    co_await state.cpu->Use(options_.poll_cpu_per_channel_ns *
                            static_cast<sim::Time>(std::max(state.owned, 1)));
    if (fabric_.checker() != nullptr) {
      CheckReadySet(thread_index);
    }
    // ---- Overload detector (docs/overload.md) ----------------------------
    // Estimated queued work for this sweep = pending requests x EWMA of the
    // measured per-request process time (floored at the dispatch cost).
    // Watermark hysteresis keeps the overloaded flag from flapping on a
    // single busy sweep. The pending peek is part of the poll charged above,
    // so it costs no extra simulated CPU; it reads only the ready set, since
    // every owned channel outside it has no pending request. The
    // backlog-derived retry hint is computed whenever ANY shedding path can
    // fire — deadline shedding is live without admission_control, and a
    // hard-coded 1 us hint there told clients to retry straight into the
    // backlog.
    size_t pending = 0;
    for (size_t ci = NextBit(state.ready, 0); ci != kNoBit; ci = NextBit(state.ready, ci + 1)) {
      pending += static_cast<size_t>(endpoints_[ci].channel->PendingRequests());
    }
    const double per_request =
        std::max(state.process_ewma_ns, static_cast<double>(options_.dispatch_cpu_ns));
    const double est_ns = per_request * static_cast<double>(pending);
    const uint16_t retry_hint_us =
        static_cast<uint16_t>(std::clamp<double>(est_ns / 1000.0, 1.0, 65535.0));
    if (options_.admission_control) {
      if (!state.overloaded &&
          est_ns >= static_cast<double>(options_.overload_hi_watermark_ns)) {
        state.overloaded = true;
        ++overload_enters_;
        if (sim::TraceSink* trace = engine.trace_sink()) {
          trace->Instant("rfp", "overload_on", worker_track_id(thread_index), engine.now());
        }
      } else if (state.overloaded &&
                 est_ns <= static_cast<double>(options_.overload_lo_watermark_ns)) {
        state.overloaded = false;
        if (sim::TraceSink* trace = engine.trace_sink()) {
          trace->Instant("rfp", "overload_off", worker_track_id(thread_index), engine.now());
        }
      }
    }
    int admitted = 0;
    // The sweep visits the ready set in ascending index order; every owned
    // channel outside it is one a visit would leave untouched, so skipping
    // it keeps the visit order and every simulated event of a scan over all
    // owned channels. Visits suspend, and meanwhile request WRITEs, steals
    // and closes edit the set, so each step re-finds the first ready index
    // past the last one considered: a channel marked or stolen in beyond
    // that point is visited this sweep; one stolen out or closed is not.
    for (size_t ci = NextBit(state.ready, 0); ci != kNoBit; ci = NextBit(state.ready, ci + 1)) {
      // The busy skip below and the fences in the steal scans are one
      // invariant with one mutant knob: unsafe_steal_busy_ models a
      // dispatcher that forgot visits suspend, so it both steals fenced
      // channels and sweeps a stolen channel whose old owner is still
      // mid-visit (tests/explore corpus pins the resulting double-serve).
      if (endpoints_[ci].busy && !unsafe_steal_busy_) {
        continue;
      }
      Channel* channel = endpoints_[ci].channel;
      // Fence the visit: the body suspends (CPU charges, RDMA ops), and a
      // concurrent steal mid-visit would hand two workers the same channel.
      endpoints_[ci].busy = true;
      if (channel->NeedsReplyResend()) {
        co_await channel->MaybeResendAfterSwitch();
      }
      // A pipelined channel (RfpOptions::window > 1) can hold up to `window`
      // ready request slots; drain them all in this visit so one sweep
      // serves a whole doorbell batch. window == 1 runs the body at most
      // once and pays exactly one header poll, as before.
      for (int served_here = 0; served_here < channel->window(); ++served_here) {
        size_t request_size = 0;
        bool got = false;
        try {
          got = channel->TryServerRecv(state.request_buf, &request_size);
        } catch (const std::length_error&) {
          // A corrupted size field claims more bytes than the dispatch
          // buffer holds. Counted drop, not an actor-killing throw; skip
          // the channel for the rest of this sweep (the client's re-issue
          // rewrites the header).
          RecordMalformedRequest(thread_index, "oversized");
          break;
        }
        if (!got) {
          break;
        }
        any = true;
        // Deadline shedding: a request whose propagated deadline already
        // passed is dead on arrival — publish BUSY(deadline) instead of
        // burning handler time on a response the client will discard. Active
        // whenever the request carries a deadline, admission control or not.
        const uint64_t request_deadline = channel->last_request_deadline_ns();
        if (request_deadline != 0 && static_cast<uint64_t>(engine.now()) > request_deadline) {
          ++requests_shed_deadline_;
          if (options_.shed_cpu_ns > 0) {
            co_await state.cpu->Use(options_.shed_cpu_ns);
          }
          co_await channel->ServerSendBusy(BusyReason::kDeadline, retry_hint_us);
          continue;  // a shed slot still leaves the rest of the window to serve
        }
        // Admission control: while overloaded, at most admission_budget
        // requests per sweep run handlers; the rest are shed with a first-
        // class BUSY instead of silently aging in the request blocks.
        if (options_.admission_control && state.overloaded &&
            admitted >= options_.admission_budget) {
          ++requests_shed_admission_;
          if (options_.shed_cpu_ns > 0) {
            co_await state.cpu->Use(options_.shed_cpu_ns);
          }
          co_await channel->ServerSendBusy(BusyReason::kAdmission, retry_hint_us);
          continue;
        }
        ++admitted;
        if (request_size < kRpcIdBytes) {
          // Runt request: shorter than the rpc id. Count and serve on — a
          // malformed frame must not kill the sweep actor.
          RecordMalformedRequest(thread_index, "runt");
          continue;
        }
        uint16_t rpc_id = 0;
        std::memcpy(&rpc_id, state.request_buf.data(), kRpcIdBytes);
        // Replication epoch gate: a gated request from the wrong epoch — or
        // any gated request while this node is not serving — is redirected,
        // never dispatched. This is what fences a restarted old primary
        // (docs/replication.md): its clients learn the promotion from the
        // redirect and re-resolve the leader.
        if (!gated_rpcs_.empty() && gated_rpcs_.count(rpc_id) != 0 &&
            (!repl_serving_ || channel->last_request_epoch() != repl_epoch_)) {
          ++requests_shed_redirect_;
          if (sim::TraceSink* trace = engine.trace_sink()) {
            trace->Instant("repl", "redirect", worker_track_id(thread_index), engine.now());
          }
          co_await channel->ServerSendRedirect(repl_epoch_, repl_leader_hint_);
          continue;
        }
        auto it = handlers_.find(rpc_id);
        if (it == handlers_.end()) {
          RecordMalformedRequest(thread_index, "unknown_rpc");
          continue;
        }
        const std::span<const std::byte> payload(state.request_buf.data() + kRpcIdBytes,
                                                 request_size - kRpcIdBytes);
        const HandlerContext ctx{thread_index};
        const HandlerResult result = co_await it->second(ctx, payload, state.response_buf);
        // Unpack/dispatch/pack CPU plus the handler's declared process time
        // elapse before the response is published, so the response header's
        // time field reports the true per-request latency on the server. For
        // a zero-copy result response_size counts only the staged prefix, so
        // the pack cost naturally excludes the value — it never crosses the
        // server's CPU, which is the point of the indirect path
        // (docs/memory.md).
        const double copy_cost = options_.copy_cpu_ns_per_byte *
                                 static_cast<double>(request_size + result.response_size);
        sim::Time process = options_.dispatch_cpu_ns + static_cast<sim::Time>(copy_cost) +
                            result.process_ns;
        if (options_.straggler_prob > 0.0 &&
            straggler_rng_.NextBernoulli(options_.straggler_prob)) {
          process += options_.straggler_extra_ns;
        }
        co_await state.cpu->Use(process);
        {
          // Feed the measured process time into the detector's EWMA. Updated
          // unconditionally: the retry hint above needs it even when the
          // watermark machine (admission_control) is off.
          const double alpha = options_.process_ewma_alpha;
          state.process_ewma_ns =
              state.process_ewma_ns == 0.0
                  ? static_cast<double>(process)
                  : alpha * static_cast<double>(process) + (1.0 - alpha) * state.process_ewma_ns;
        }
        if (result.zero_copy.valid()) {
          co_await channel->ServerSendZeroCopy(
              std::span<const std::byte>(state.response_buf.data(), result.response_size),
              result.zero_copy);
        } else {
          co_await channel->ServerSend(
              std::span<const std::byte>(state.response_buf.data(), result.response_size));
        }
        ++state.served;
        ++requests_served_;
      }
      if (options_.multicore && options_.batch_reply_publication) {
        // Publish every slot this visit completed in one doorbell batch
        // (reply mode only; fetch-mode responses are already local stores).
        co_await channel->FlushServerPushes();
      }
      endpoints_[ci].busy = false;
      if (endpoints_[ci].closing) {
        // A CloseChannel raced this visit; destroy now that the visit's
        // spans into the channel are dead.
        DestroyChannel(ci);
      } else if (channel->SweepIdle()) {
        // Nothing left for a later visit until the client's next WRITE
        // marks the channel again.
        ClearBit(threads_[static_cast<size_t>(endpoints_[ci].owner)].ready, ci);
      }
    }
    // ---- Work stealing (docs/multicore.md) -------------------------------
    // Between sweeps, claim channels stranded on crashed workers; when this
    // sweep found nothing at all, also relieve a backlogged live worker.
    // Bounded per sweep so ownership churn stays low, and never across a
    // busy fence. Synchronous (no co_await), so the scan is atomic in the
    // cooperative scheduler. Every condition is a pure read, so the cheap
    // ones go first: the orphan scan runs only while some worker is down,
    // and the O(1) balance test precedes the request-block peek.
    if (options_.multicore && options_.work_stealing) {
      int budget = options_.max_steals_per_sweep;
      for (size_t ci = 0; crashed_threads_ > 0 && ci < endpoints_.size() && budget > 0; ++ci) {
        ChannelEntry& entry = endpoints_[ci];
        if (entry.channel == nullptr || entry.owner == thread_index ||
            (entry.busy && !unsafe_steal_busy_)) {
          continue;
        }
        if (!threads_[static_cast<size_t>(entry.owner)].crashed) {
          continue;
        }
        StealChannel(ci, thread_index, "orphan_claim");
        --budget;
      }
      if (!any) {
        for (size_t ci = 0; ci < endpoints_.size() && budget > 0; ++ci) {
          ChannelEntry& entry = endpoints_[ci];
          if (entry.channel == nullptr || entry.owner == thread_index ||
              (entry.busy && !unsafe_steal_busy_) ||
              threads_[static_cast<size_t>(entry.owner)].crashed) {
            continue;
          }
          // A load steal must strictly improve ownership balance, so two
          // idle workers cannot ping-pong a channel between their sweep
          // phases forever (each re-stealing before the new owner's visit):
          // migration is monotone toward balance and then stops.
          if (channels_owned_by(entry.owner) <= channels_owned_by(thread_index) + 1) {
            continue;
          }
          if (entry.channel->PendingRequests() < options_.steal_min_backlog) {
            continue;
          }
          StealChannel(ci, thread_index, "channel_steal");
          --budget;
        }
      }
    }
    if (!any) {
      co_await engine.Sleep(options_.idle_sleep_ns);
    }
  }
}

RpcClient::RpcClient(Channel* channel) : channel_(channel) {
  scratch_.resize(kRpcIdBytes + channel->options().max_message_bytes);
  submit_start_.resize(static_cast<size_t>(channel->window()), 0);
}

RpcClient::~RpcClient() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"client", channel_->client_node()->name()}};
  reg.GetCounter("rfp.rpc.client_calls", labels)->Add(calls_);
  reg.GetHistogram("rfp.rpc.call_latency_ns", labels)->Merge(latency_);
}

sim::Task<size_t> RpcClient::Call(uint16_t rpc_id, std::span<const std::byte> request,
                                  std::span<std::byte> response, const CallOptions& options) {
  const sim::Time start = channel_->client_node()->fabric()->engine().now();
  std::memcpy(scratch_.data(), &rpc_id, kRpcIdBytes);
  // CopyBytes is the checked copy: an empty request (null span data pointer)
  // is a valid no-op, and an overlap throws instead of invoking UB.
  rdma::CopyBytes(std::span<std::byte>(scratch_.data() + kRpcIdBytes, request.size()), request);
  const Channel::CallHandle handle = co_await channel_->SubmitCall(
      std::span<const std::byte>(scratch_.data(), kRpcIdBytes + request.size()), options);
  const size_t n = co_await channel_->AwaitCall(handle, response);
  ++calls_;
  latency_.Record(channel_->client_node()->fabric()->engine().now() - start);
  co_return n;
}

sim::Task<Channel::CallHandle> RpcClient::SubmitCall(uint16_t rpc_id,
                                                     std::span<const std::byte> request,
                                                     const CallOptions& options) {
  const sim::Time start = channel_->client_node()->fabric()->engine().now();
  std::memcpy(scratch_.data(), &rpc_id, kRpcIdBytes);
  // CopyBytes is the checked copy: an empty request (null span data pointer)
  // is a valid no-op, and an overlap throws instead of invoking UB.
  rdma::CopyBytes(std::span<std::byte>(scratch_.data() + kRpcIdBytes, request.size()), request);
  // Channel::SubmitCall stages the bytes into the call's slot before it
  // returns, so scratch_ is immediately reusable by the next submit.
  const Channel::CallHandle handle = co_await channel_->SubmitCall(
      std::span<const std::byte>(scratch_.data(), kRpcIdBytes + request.size()), options);
  submit_start_[static_cast<size_t>(handle.slot)] = start;
  co_return handle;
}

sim::Task<size_t> RpcClient::AwaitCall(Channel::CallHandle handle,
                                       std::span<std::byte> response) {
  const size_t n = co_await channel_->AwaitCall(handle, response);
  ++calls_;
  latency_.Record(channel_->client_node()->fabric()->engine().now() -
                  submit_start_[static_cast<size_t>(handle.slot)]);
  co_return n;
}

}  // namespace rfp
