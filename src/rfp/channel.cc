#include "src/rfp/channel.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/check/checker.h"
#include "src/obs/metrics.h"
#include "src/rfp/rpc.h"
#include "src/sim/poller.h"

namespace rfp {

namespace {

// Switch back to remote fetching once kFastCallsBeforeSwitchBack consecutive
// replies report a server process time at or below kSwitchBackUs. 7 us is
// the paper's fetch-vs-reply crossover.
constexpr uint16_t kSwitchBackUs = 7;
constexpr int kFastCallsBeforeSwitchBack = 2;

// Client-side polling cadence while waiting in server-reply mode: the client
// checks its local response landing every interval, costing kReplyPollCpuNs
// of CPU per check (this is what drops client CPU below 30% in Fig 15).
constexpr sim::Time kReplyPollIntervalNs = 1000;
constexpr sim::Time kReplyPollCpuNs = 30;

// With RfpOptions::checksum_responses, the client re-issues a request after
// this many consecutive corrupt observations of its response.
constexpr int kCorruptFetchesBeforeReissue = 2;

// Bound on request re-issues (timeout, corruption or BUSY triggered) before
// the call gives up and throws.
constexpr int kMaxReissueAttempts = 8;

// Jittered backoff before re-issuing a request the server shed with
// BUSY(admission): sleep ~hint * 2^(n-1) for the n-th consecutive BUSY of the
// call, capped here, jittered by +/-25% to de-synchronize retry stampedes
// across clients.
constexpr sim::Time kBusyBackoffMaxNs = 2 * 1000 * 1000;

// Connection re-establishment after a QP error (RC pair teardown plus the
// out-of-band handshake); RfpOptions::max_reconnect_attempts bounds retries.
constexpr sim::Time kReconnectDelayNs = 20 * 1000;

void CheckOk(const rdma::WorkCompletion& wc, const char* what) {
  if (!wc.ok()) {
    throw std::runtime_error(std::string("rfp channel: ") + what + " failed: " +
                             rdma::WcStatusName(wc.status));
  }
}

}  // namespace

Channel::Channel(rdma::Fabric& fabric, rdma::Node& client, rdma::Node& server,
                 const RfpOptions& options)
    : engine_(fabric.engine()),
      fabric_(&fabric),
      client_node_(&client),
      server_node_(&server),
      options_(options) {
  ValidateOptions(options_);
  // Both blocks are sized for the larger (request) header plus the optional
  // checksum trailer after the max-sized payload; the response block simply
  // carries a little slack. A pipelined channel repeats the layout per slot:
  // [req slot 0..W-1][resp slot 0..W-1] (W=1 is the paper's single pair).
  block_bytes_ = ChannelSlotBytes(options_);
  const size_t window = static_cast<size_t>(options_.window);
  resp_offset_ = window * block_bytes_;
  auto [cqp, sqp] = fabric.ConnectRc(client, server);
  client_qp_ = cqp;
  server_qp_ = sqp;
  // Both rings come from the nodes' shared registered-memory pools
  // (docs/memory.md): no MR is registered per channel, so setup/teardown
  // churn and reconnects recycle registered memory. The pool arenas allow
  // remote read+write, which covers both the remotely-written request ring
  // and the remotely-read response ring.
  const size_t ring_bytes = ChannelRingBytes(options_);
  server_pool_ = mem::Pool::Shared(server);
  client_pool_ = mem::Pool::Shared(client);
  // Rings that can never fit a node's registered-memory cap fail here with
  // an actionable message instead of deep inside mem::Pool as a generic
  // ExhaustedError (the pool can still throw that when the cap is merely
  // *occupied* — that path stays recoverable).
  ValidateOptions(options_, server_pool_->max_registered_bytes(), server.name());
  ValidateOptions(options_, client_pool_->max_registered_bytes(), client.name());
  try {
    server_span_ = server_pool_->Alloc(ring_bytes);
    client_span_ = client_pool_->Alloc(ring_bytes);
  } catch (const mem::ExhaustedError&) {
    if (server_span_.valid()) server_pool_->Free(server_span_);
    throw;
  }
  server_ = RingView{server_span_.mr, server_span_.offset};
  client_ = RingView{client_span_.mr, client_span_.offset};
  // A recycled span may hold a predecessor's ring: stale headers could alias
  // a fresh call's (slot, seq), so both rings start zeroed, exactly like a
  // freshly registered MR.
  std::fill(server_span_.bytes().begin(), server_span_.bytes().end(), std::byte{0});
  std::fill(client_span_.bytes().begin(), client_span_.bytes().end(), std::byte{0});
  cslots_.resize(window);
  sslots_.resize(window);
  if (check::FabricChecker* chk = fabric.checker()) {
    chk->OnChannelWindow(this, options_.window);
  }
  // Per-channel deterministic jitter stream (breaker open intervals, busy
  // retry backoff): pooled channels can share an arena rkey, so the span
  // base disambiguates them.
  rng_.Seed(sim::Mix64(options_.breaker_seed ^ server_.remote_key().rkey ^
                       static_cast<uint64_t>(server_span_.offset)));
  if (options_.force_mode == RfpOptions::ForceMode::kForceReply) {
    mode_ = Mode::kServerReply;
  }
  set_fetch_size(options_.fetch_size);
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->NameTrack(reinterpret_cast<uint64_t>(this),
                     "channel " + client.name() + "->" + server.name());
  }
}

Channel::~Channel() {
  // Close the open reply-mode span, if any, so traces show the final state.
  if (mode_ == Mode::kServerReply && adaptive()) {
    if (sim::TraceSink* trace = engine_.trace_sink()) {
      trace->Span("rfp", "server_reply_mode", reinterpret_cast<uint64_t>(this),
                  reply_mode_since_, engine_.now());
    }
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"client", client_node()->name()},
                           {"server", server_node()->name()}};
  const Stats& s = stats_;
#define RFP_CHANNEL_FLUSH_COUNTER(field, gate) \
  if (gate) reg.GetCounter("rfp.channel." #field, labels)->Add(s.field);
#define RFP_CHANNEL_FLUSH_HISTOGRAM(field, gate) \
  if (gate) reg.GetHistogram("rfp.channel." #field, labels)->Merge(s.field);
  RFP_CHANNEL_COUNTERS(RFP_CHANNEL_FLUSH_COUNTER)
  RFP_CHANNEL_HISTOGRAMS(RFP_CHANNEL_FLUSH_HISTOGRAM)
#undef RFP_CHANNEL_FLUSH_COUNTER
#undef RFP_CHANNEL_FLUSH_HISTOGRAM
  // Release the channel's fabric resources: the endpoints stop resolving, so
  // any straggler holding a stale pointer fails loudly (and, under checking,
  // flags qp.post_on_retired) instead of scribbling. The ring spans return
  // to their pools for reuse — no deregistration, which is the point of the
  // pool (docs/memory.md).
  fabric_->RetireQp(client_qp_);
  fabric_->RetireQp(server_qp_);
  server_pool_->Free(server_span_);
  client_pool_->Free(client_span_);
}

void Channel::Stats::Merge(const Stats& other) {
#define RFP_CHANNEL_MERGE_COUNTER(field, gate) field += other.field;
#define RFP_CHANNEL_MERGE_HISTOGRAM(field, gate) field.Merge(other.field);
  RFP_CHANNEL_COUNTERS(RFP_CHANNEL_MERGE_COUNTER)
  RFP_CHANNEL_HISTOGRAMS(RFP_CHANNEL_MERGE_HISTOGRAM)
#undef RFP_CHANNEL_MERGE_COUNTER
#undef RFP_CHANNEL_MERGE_HISTOGRAM
}

void Channel::Detach() {
  // Both endpoints go to the error state: in-flight completions drain
  // normally, everything after completes with kQpError, and the next client
  // op triggers EnsureConnected + idempotent re-issue — exactly the fault
  // path tests/rfp already pin, which is what makes cache eviction safe
  // under in-flight calls.
  client_qp_->SetError();
  server_qp_->SetError();
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("conn", "channel_detach", reinterpret_cast<uint64_t>(this), engine_.now());
  }
}

void Channel::set_fetch_size(uint32_t f) {
  options_.fetch_size =
      std::clamp<uint32_t>(f, kHeaderBytes, static_cast<uint32_t>(block_bytes_));
}

// ---- Client side ---------------------------------------------------------------

sim::Task<void> Channel::ClientSend(std::span<const std::byte> msg, sim::Time deadline_ns) {
  CallOptions opts;
  opts.deadline_ns = deadline_ns;
  last_call_ = co_await SubmitCall(msg, opts);
  co_await FlushCalls();
}

sim::Task<size_t> Channel::ClientRecv(std::span<std::byte> out) {
  co_return co_await AwaitCall(last_call_, out);
}

sim::Task<Channel::CallHandle> Channel::SubmitCall(std::span<const std::byte> msg,
                                                   const CallOptions& opts) {
  if (msg.size() > options_.max_message_bytes) {
    throw std::invalid_argument("rfp channel: request exceeds max_message_bytes");
  }
  // An open breaker delays the submit (idle, not client CPU) until its open
  // interval elapses; this call then becomes the half-open probe.
  co_await MaybeAwaitBreaker();
  int slot = -1;
  for (int s = 0; s < options_.window; ++s) {
    if (cslot(s).state == ClientSlot::State::kFree) {
      slot = s;
      break;
    }
  }
  if (slot < 0) {
    // Thrown before the checker's OnClientSend: a rejected submit never
    // becomes an outstanding call.
    throw std::runtime_error("rfp channel: call window full");
  }
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnClientSend(this);
  }
  if (++seq_ == 0) {
    ++seq_;  // reserve 0 for "never used"
  }
  ClientSlot& cs = cslot(slot);
  cs = ClientSlot{};
  cs.state = ClientSlot::State::kStaged;
  cs.breaker_epoch = breaker_epoch_;
  cs.seq = seq_;
  cs.req_bytes = static_cast<uint32_t>(msg.size());
  cs.deadline = opts.deadline_ns != 0 ? opts.deadline_ns
                : options_.call_deadline_ns > 0 ? engine_.now() + options_.call_deadline_ns
                                                : 0;
  cs.fetch_override = opts.fetch_size;
  RequestHeader header;
  header.size_status = wire::PackRequestSizeStatus(cs.req_bytes, true, request_epoch_);
  header.seq = cs.seq;
  header.mode = static_cast<uint8_t>(mode_);
  header.slot = static_cast<uint8_t>(slot);
  header.deadline_ns = static_cast<uint64_t>(cs.deadline);
  // The staging block keeps the payload until the slot is reused, which is
  // what makes ReissueRequest possible without the caller's buffer.
  client_.Store(req_off(slot), header);
  client_.WriteBytes(req_off(slot) + kReqHeaderBytes, msg);
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnCpuStore(client_.remote_key().rkey, client_.abs(req_off(slot)),
                    kReqHeaderBytes + msg.size());
  }
  ++staged_count_;
  const CallHandle handle{slot, cs.seq};
  if (options_.window > 1) {
    stats_.submit_window.Record(posted_count_ + staged_count_);
    co_return handle;
  }
  // A one-slot window has nothing to coalesce with: post at once, as the
  // paper's client_send does.
  try {
    co_await FlushCalls();
  } catch (...) {
    FreeSlot(slot);
    throw;
  }
  co_return handle;
}

sim::Task<void> Channel::FlushCalls() {
  if (staged_count_ == 0) {
    co_return;
  }
  const sim::Time start = engine_.now();
  const ScratchLease scratch(*this);
  std::vector<BatchOp>& ops = scratch->ops;
  check::FabricChecker* chk = fabric_->checker();
  for (int s = 0; s < options_.window; ++s) {
    const ClientSlot& cs = cslot(s);
    if (cs.state != ClientSlot::State::kStaged) {
      continue;
    }
    // Refresh the staged header's mode byte: the channel may have switched
    // paradigms since the submit, and slot 0's mode byte in the server block
    // is the server's source of truth — posting a stale one would revert it.
    client_.Store<uint8_t>(req_off(s) + kRequestModeOffset, static_cast<uint8_t>(mode_));
    if (chk != nullptr) {
      chk->OnCpuStore(client_.remote_key().rkey, client_.abs(req_off(s) + kRequestModeOffset), 1);
    }
    ops.push_back({s, /*is_read=*/false, req_off(s), req_off(s), kReqHeaderBytes + cs.req_bytes});
  }
  co_await RcBatch(/*from_client=*/true, ops, "request write");
  for (const BatchOp& op : ops) {
    cslot(op.slot).state = ClientSlot::State::kPosted;
    ++stats_.calls;
    ++stats_.request_writes;
    ++posted_count_;
  }
  staged_count_ = 0;
  client_busy_.AddBusy(engine_.now() - start);
}

sim::Task<size_t> Channel::AwaitCall(CallHandle handle, std::span<std::byte> out) {
  if (handle.slot < 0 || handle.slot >= options_.window) {
    throw std::invalid_argument("rfp channel: call handle slot out of range");
  }
  const ClientSlot& cs = cslot(handle.slot);
  if (cs.state == ClientSlot::State::kFree || cs.seq != handle.seq) {
    throw std::invalid_argument("rfp channel: stale call handle");
  }
  size_t delivered = 0;
  try {
    delivered = co_await AwaitSlot(handle.slot, out);
  } catch (...) {
    FreeSlot(handle.slot);
    throw;
  }
  FreeSlot(handle.slot);
  co_return delivered;
}

sim::Task<size_t> Channel::AwaitSlot(int slot, std::span<std::byte> out) {
  ClientSlot& cs = cslot(slot);
  const sim::Time start = engine_.now();
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnClientRecvStart(this);
  }
  co_await FlushCalls();
  sim::Time fetch_deadline =
      options_.fetch_timeout_ns > 0 ? start + options_.fetch_timeout_ns : 0;
  sim::Time backoff = options_.fetch_backoff_initial_ns;
  sim::Time slept = 0;  // backoff sleeps are idle time, not client CPU
  while (true) {
    if (mode_ == Mode::kServerReply) {
      co_return co_await AwaitReply(slot, out);
    }
    // Remote-fetch path: spin on RDMA READs of F bytes (or the call's
    // per-call fetch size).
    if (!cs.landing_ready) {
      co_await FetchSweep(slot);
    }
    if (cs.landing_ready) {
      const ResponseHeader header = client_.Load<ResponseHeader>(land_off(slot));
      if (wire::UnpackBusy(header.size_status)) {
        // The server shed this request instead of serving it. Only the
        // header is meaningful (and published).
        cs.landing_ready = false;
        if (check::FabricChecker* chk = fabric_->checker()) {
          chk->OnAccept(check::ViolationKind::kRaceFetchStore, server_.remote_key().rkey,
                        server_.abs(land_off(slot)),
                        std::min<uint32_t>(kHeaderBytes, cs.fetched_len),
                        cs.fetch_tick, "busy fetch");
        }
        RecordBusyResponse(header, cs.breaker_epoch);
        if (wire::UnpackBusyReason(header.size_status) == BusyReason::kDeadline ||
            (cs.deadline != 0 && engine_.now() >= cs.deadline)) {
          if (check::FabricChecker* chk = fabric_->checker()) {
            chk->OnClientRecvDone(this);
          }
          client_busy_.AddBusy(engine_.now() - start - slept);
          throw DeadlineExceeded("rfp channel: call deadline exceeded (request shed)");
        }
        // BUSY(admission): back off per the retry-after hint, then re-issue.
        const sim::Time delay = BusyRetryDelay(header.time_us, ++cs.busy_streak);
        co_await engine_.Sleep(delay);
        slept += delay;
        if (cs.deadline != 0 && engine_.now() >= cs.deadline) {
          if (check::FabricChecker* chk = fabric_->checker()) {
            chk->OnClientRecvDone(this);
          }
          client_busy_.AddBusy(engine_.now() - start - slept);
          throw DeadlineExceeded("rfp channel: call deadline exceeded while backing off");
        }
        if (++cs.reissues > kMaxReissueAttempts) {
          throw std::runtime_error("rfp channel: request shed after max reissues");
        }
        TransferAttemptReads(&cs.attempt_reads);
        co_await ReissueRequest(slot);
        if (fetch_deadline != 0) {
          fetch_deadline = engine_.now() + options_.fetch_timeout_ns;
        }
        cs.failed = 0;
        continue;
      }
      if (wire::UnpackRedirect(header.size_status)) {
        // This server is not the primary for the epoch the request carried;
        // only the header is meaningful (and published). The caller's
        // failover layer re-resolves the leader and re-issues.
        if (check::FabricChecker* chk = fabric_->checker()) {
          chk->OnAccept(check::ViolationKind::kRaceFetchStore, server_.remote_key().rkey,
                        server_.abs(land_off(slot)),
                        std::min<uint32_t>(kHeaderBytes, cs.fetched_len),
                        cs.fetch_tick, "redirect fetch");
          chk->OnClientRecvDone(this);
        }
        ++stats_.redirects;
        client_busy_.AddBusy(engine_.now() - start - slept);
        throw Redirected(wire::UnpackRedirectEpoch(header.size_status), header.time_us);
      }
      cs.busy_streak = 0;
      const uint32_t size = wire::UnpackSize(header.size_status);
      if (size > out.size()) {
        throw std::length_error("rfp channel: response larger than output buffer");
      }
      const uint32_t total = kHeaderBytes + size + ChecksumBytes();
      uint64_t remainder_tick = 0;
      if (total > cs.fetched_len) {
        // The sweep's fetch was short: one more READ collects the remainder.
        const rdma::WorkCompletion rest_wc = co_await RcOp(
            true, true, land_off(slot) + cs.fetched_len, land_off(slot) + cs.fetched_len,
            total - cs.fetched_len, "remainder fetch");
        remainder_tick = rest_wc.check_tick;
        ++stats_.fetch_reads;
        ++cs.attempt_reads;
        ++stats_.extra_fetches;
      }
      if (options_.checksum_responses && !ChecksumOk(slot, size)) {
        // Corrupted (or torn mid-rewrite) response: never deliver the bytes.
        // After enough corrupt observations, re-issue under a fresh seq tag
        // and fetch the re-executed result.
        ++stats_.corrupt_fetches;
        cs.landing_ready = false;
        if (++cs.corrupt >= kCorruptFetchesBeforeReissue) {
          if (++cs.reissues > kMaxReissueAttempts) {
            throw std::runtime_error("rfp channel: response corrupt after max reissues");
          }
          TransferAttemptReads(&cs.attempt_reads);
          co_await ReissueRequest(slot);
          cs.corrupt = 0;
        }
        continue;
      }
      if (check::FabricChecker* chk = fabric_->checker()) {
        // The fetched bytes become the call's result here: every byte must
        // have been published as of the READ snapshot that carried it.
        const uint32_t rkey = server_.remote_key().rkey;
        chk->OnAccept(check::ViolationKind::kRaceFetchStore, rkey, server_.abs(land_off(slot)),
                      std::min(total, cs.fetched_len), cs.fetch_tick, "result fetch");
        if (total > cs.fetched_len) {
          chk->OnAccept(check::ViolationKind::kRaceFetchStore, rkey,
                        server_.abs(land_off(slot) + cs.fetched_len), total - cs.fetched_len,
                        remainder_tick, "remainder fetch");
        }
      }
      size_t delivered = size;
      if (wire::UnpackIndirect(header.size_status)) {
        // The staged bytes are an [IndirectRef][prefix] descriptor: one more
        // READ collects the value straight from the store-owned entry.
        delivered = co_await CompleteIndirect(land_off(slot), size, out, "zero-copy entry fetch");
      } else {
        client_.ReadBytes(land_off(slot) + kHeaderBytes, out.subspan(0, size));
      }
      if (check::FabricChecker* chk = fabric_->checker()) {
        chk->OnClientRecvDone(this);
      }
      last_server_time_us_ = header.time_us;
      stats_.retries_per_call.Record(cs.failed);
      // ">= R": a piggybacked sweep can step this slot's failure count past
      // R between its awaits. While the overload override is active, slow
      // calls do not build a switch streak: a shedding server is saturated,
      // not slow-pathed, and a stampede of switches to server-reply would
      // only add out-bound work (see kOverloadOverrideCalls).
      slow_streak_ = cs.failed >= options_.retry_threshold && !OverloadSuppressesSwitch()
                         ? slow_streak_ + 1
                         : 0;
      RecordBreakerOutcome(false, cs.breaker_epoch);
      if (calls_since_busy_ < (1 << 30)) {
        ++calls_since_busy_;
      }
      client_busy_.AddBusy(engine_.now() - start - slept);
      co_return delivered;
    }
    // The sweep came back without this slot's response.
    if (cs.failed >= options_.retry_threshold && adaptive() && !OverloadSuppressesSwitch() &&
        slow_streak_ + 1 >= options_.slow_calls_before_switch) {
      // This call and its predecessors were all slow: fall back.
      stats_.retries_per_call.Record(cs.failed);
      client_busy_.AddBusy(engine_.now() - start - slept);
      co_await SwitchToReply();
      co_return co_await AwaitReply(slot, out);
    }
    if (fetch_deadline != 0 && engine_.now() >= fetch_deadline) {
      // The fetch deadline expired mid-call: the server is unreachable,
      // crashed, or pathologically slow.
      ++stats_.fetch_timeouts;
      RecordBreakerOutcome(true, cs.breaker_epoch);
      if (sim::TraceSink* trace = engine_.trace_sink()) {
        trace->Instant("rfp", "fetch_timeout", reinterpret_cast<uint64_t>(this), engine_.now());
      }
      if (adaptive()) {
        // Fall back to server-reply without waiting out the slow streak.
        // Deliberately NOT gated on the overload override: the timeout is
        // the crash-recovery path, and the abandoned READs stay in the
        // primary counters (the call completes via the reply push).
        stats_.retries_per_call.Record(cs.failed);
        client_busy_.AddBusy(engine_.now() - start - slept);
        co_await SwitchToReply();
        co_return co_await AwaitReply(slot, out);
      }
      if (++cs.reissues > kMaxReissueAttempts) {
        throw std::runtime_error("rfp channel: fetch timed out after max reissues");
      }
      TransferAttemptReads(&cs.attempt_reads);
      co_await ReissueRequest(slot);
      fetch_deadline = engine_.now() + options_.fetch_timeout_ns;
      cs.failed = 0;
    }
    if (cs.deadline != 0 && engine_.now() >= cs.deadline) {
      // The call's own deadline is authoritative: the caller abandons the
      // result whether the server is slow, saturated, or dark. (The fetch
      // timeout above fires first when configured shorter, keeping its
      // switch/reissue recovery semantics.)
      if (check::FabricChecker* chk = fabric_->checker()) {
        chk->OnClientRecvDone(this);
      }
      client_busy_.AddBusy(engine_.now() - start - slept);
      throw DeadlineExceeded("rfp channel: call deadline exceeded while fetching");
    }
    if (backoff > 0 && cs.failed > options_.retry_threshold) {
      co_await engine_.Sleep(backoff);
      slept += backoff;
      const sim::Time cap =
          std::max<sim::Time>(options_.fetch_backoff_max_ns, options_.fetch_backoff_initial_ns);
      backoff = std::min<sim::Time>(backoff * 2, cap);
    }
  }
}

sim::Task<void> Channel::FetchSweep(int primary) {
  if (options_.coalesced_fetch) {
    // Slots still awaiting a response. Response slots are contiguous in the
    // ring ([resp 0..W-1], block_bytes_ apart), so one spanning READ from the
    // lowest pending slot through the highest covers them all.
    const ScratchLease scratch(*this);
    std::vector<int>& pending = scratch->slots;
    int lo = options_.window;
    int hi = -1;
    for (int s = 0; s < options_.window; ++s) {
      const ClientSlot& cs = cslot(s);
      if (cs.state == ClientSlot::State::kPosted && !cs.landing_ready) {
        pending.push_back(s);
        lo = std::min(lo, s);
        hi = std::max(hi, s);
      }
    }
    if (pending.size() >= 2) {
      // Whole blocks, so no slot ever needs a remainder fetch (a block holds
      // the largest response + trailer). Re-landing the bytes of a ready-but-
      // unawaited slot inside the span is benign: the server cannot rewrite a
      // slot until the client frees it, so identical bytes land again. The
      // span is ONE in-bound op at the server: service max(gap, bytes/bw)
      // instead of one 89 ns gap per slot — the per-call in-bound cost drops
      // toward the single request WRITE (docs/multicore.md).
      const uint32_t len = static_cast<uint32_t>(static_cast<size_t>(hi - lo + 1) * block_bytes_);
      std::vector<BatchOp>& span = scratch->ops;
      span.push_back({primary, /*is_read=*/true, land_off(lo), land_off(lo), len});
      co_await RcBatch(/*from_client=*/true, span, "coalesced fetch");
      ++stats_.fetch_reads;
      ++stats_.coalesced_fetches;
      stats_.coalesced_slots += pending.size();
      // The span is one wire READ; attribute it to the awaited slot so a
      // re-issue moves exactly one op into the recovery bucket.
      ++cslot(primary).attempt_reads;
      for (int s : pending) {
        ClientSlot& cs = cslot(s);
        const ResponseHeader header = client_.Load<ResponseHeader>(land_off(s));
        if (wire::UnpackStatus(header.size_status) && AcceptSeq(header.seq, cs.seq)) {
          cs.landing_ready = true;
          cs.fetch_tick = span[0].wc.check_tick;
          cs.fetched_len = static_cast<uint32_t>(block_bytes_);
        } else {
          ++cs.failed;
          ++stats_.failed_fetches;
        }
      }
      co_return;
    }
    // A single pending slot falls through to the per-slot READ below (which
    // honors fetch_size and per-call overrides).
  }
  const ScratchLease scratch(*this);
  std::vector<BatchOp>& ops = scratch->ops;
  const auto add = [&](int s) {
    const ClientSlot& cs = cslot(s);
    if (cs.state != ClientSlot::State::kPosted || cs.landing_ready) {
      return;
    }
    const uint32_t f =
        cs.fetch_override != 0 ? EffectiveFetch(cs.fetch_override) : options_.fetch_size;
    ops.push_back({s, /*is_read=*/true, land_off(s), land_off(s), f});
  };
  // The awaited slot leads (it pays the doorbell); every other in-flight
  // slot's fetch rides the same batch at the marginal issue cost.
  add(primary);
  for (int s = 0; s < options_.window; ++s) {
    if (s != primary) {
      add(s);
    }
  }
  if (ops.empty()) {
    co_return;
  }
  co_await RcBatch(/*from_client=*/true, ops, "result fetch");
  for (const BatchOp& op : ops) {
    ClientSlot& cs = cslot(op.slot);
    ++stats_.fetch_reads;
    ++cs.attempt_reads;
    const ResponseHeader header = client_.Load<ResponseHeader>(land_off(op.slot));
    if (wire::UnpackStatus(header.size_status) && AcceptSeq(header.seq, cs.seq)) {
      cs.landing_ready = true;
      cs.fetch_tick = op.wc.check_tick;
      cs.fetched_len = op.len;
    } else {
      ++cs.failed;
      ++stats_.failed_fetches;
    }
  }
}

sim::Task<void> Channel::SwitchToReply() {
  mode_ = Mode::kServerReply;
  reply_mode_since_ = engine_.now();
  slow_streak_ = 0;
  fast_streak_ = 0;
  ++stats_.switches_to_reply;
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("rfp", "switch_to_reply", reinterpret_cast<uint64_t>(this), engine_.now());
  }
  // Publish the new mode to the server with a one-byte WRITE into the
  // request block's mode field.
  client_.Store<uint8_t>(kRequestModeOffset, static_cast<uint8_t>(Mode::kServerReply));
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnCpuStore(client_.remote_key().rkey, client_.abs(kRequestModeOffset), 1);
  }
  co_await RcOp(/*from_client=*/true, /*is_read=*/false, kRequestModeOffset, kRequestModeOffset,
                1, "mode switch write");
}

sim::Task<size_t> Channel::AwaitReply(int slot, std::span<std::byte> out) {
  ClientSlot& cs = cslot(slot);
  // An empty poll only charges kReplyPollCpuNs, so the loop parks until
  // the landing block changes or the call deadline passes.
  sim::Poller poller(engine_, &client_busy_, kReplyPollCpuNs);
  while (true) {
    const ResponseHeader header = client_.Load<ResponseHeader>(land_off(slot));
    if (wire::UnpackStatus(header.size_status) && AcceptSeq(header.seq, cs.seq)) {
      if (wire::UnpackBusy(header.size_status)) {
        // The server shed this request; only the header was pushed.
        if (check::FabricChecker* chk = fabric_->checker()) {
          chk->OnAccept(check::ViolationKind::kRaceRecvStore, client_.remote_key().rkey,
                        client_.abs(land_off(slot)), kHeaderBytes, 0, "busy reply");
        }
        RecordBusyResponse(header, cs.breaker_epoch);
        if (wire::UnpackBusyReason(header.size_status) == BusyReason::kDeadline ||
            (cs.deadline != 0 && engine_.now() >= cs.deadline)) {
          if (check::FabricChecker* chk = fabric_->checker()) {
            chk->OnClientRecvDone(this);
          }
          client_busy_.AddBusy(kReplyPollCpuNs);
          throw DeadlineExceeded("rfp channel: call deadline exceeded (request shed)");
        }
        const sim::Time delay = BusyRetryDelay(header.time_us, ++cs.busy_streak);
        co_await engine_.Sleep(delay);
        if (cs.deadline != 0 && engine_.now() >= cs.deadline) {
          if (check::FabricChecker* chk = fabric_->checker()) {
            chk->OnClientRecvDone(this);
          }
          client_busy_.AddBusy(kReplyPollCpuNs);
          throw DeadlineExceeded("rfp channel: call deadline exceeded while backing off");
        }
        if (++cs.reissues > kMaxReissueAttempts) {
          throw std::runtime_error("rfp channel: request shed after max reissues");
        }
        co_await ReissueRequest(slot);
        client_busy_.AddBusy(kReplyPollCpuNs);
        continue;
      }
      if (wire::UnpackRedirect(header.size_status)) {
        if (check::FabricChecker* chk = fabric_->checker()) {
          chk->OnAccept(check::ViolationKind::kRaceRecvStore, client_.remote_key().rkey,
                        client_.abs(land_off(slot)), kHeaderBytes, 0, "redirect reply");
          chk->OnClientRecvDone(this);
        }
        ++stats_.redirects;
        client_busy_.AddBusy(kReplyPollCpuNs);
        throw Redirected(wire::UnpackRedirectEpoch(header.size_status), header.time_us);
      }
      const uint32_t size = wire::UnpackSize(header.size_status);
      if (size > out.size()) {
        throw std::length_error("rfp channel: response larger than output buffer");
      }
      if (options_.checksum_responses && !ChecksumOk(slot, size)) {
        // The pushed reply arrived corrupted: re-issue under a fresh seq and
        // wait for the re-executed push (the stale header can no longer
        // match the bumped sequence).
        ++stats_.corrupt_fetches;
        if (++cs.reissues > kMaxReissueAttempts) {
          throw std::runtime_error("rfp channel: pushed reply corrupt after max reissues");
        }
        co_await ReissueRequest(slot);
        client_busy_.AddBusy(kReplyPollCpuNs);
        co_await engine_.Sleep(kReplyPollIntervalNs);
        continue;
      }
      if (check::FabricChecker* chk = fabric_->checker()) {
        // The pushed reply is consumed from the local landing block: every
        // byte must come from the push, not a lingering local store.
        chk->OnAccept(check::ViolationKind::kRaceRecvStore, client_.remote_key().rkey,
                      client_.abs(land_off(slot)), kHeaderBytes + size + ChecksumBytes(), 0,
                      "reply await");
      }
      size_t delivered = size;
      if (wire::UnpackIndirect(header.size_status)) {
        // A descriptor staged before the switch to server-reply was pushed
        // as-is; the client can still READ the entry it names.
        delivered = co_await CompleteIndirect(land_off(slot), size, out, "zero-copy entry fetch");
      } else {
        client_.ReadBytes(land_off(slot) + kHeaderBytes, out.subspan(0, size));
      }
      if (check::FabricChecker* chk = fabric_->checker()) {
        chk->OnClientRecvDone(this);
      }
      client_busy_.AddBusy(kReplyPollCpuNs);
      FinishReplyCall(header, cs.breaker_epoch);
      co_return delivered;
    }
    client_busy_.AddBusy(kReplyPollCpuNs);
    if (cs.deadline != 0 && engine_.now() >= cs.deadline) {
      // No reply before the call deadline (saturated or dark server): give
      // up. A stale push that lands later is ignored by the bumped seq.
      if (check::FabricChecker* chk = fabric_->checker()) {
        chk->OnClientRecvDone(this);
      }
      throw DeadlineExceeded("rfp channel: call deadline exceeded awaiting reply");
    }
    client_.mr->Watch(client_.abs(land_off(slot)), block_bytes_, &poller);
    co_await poller.Park(kReplyPollIntervalNs, cs.deadline);
    client_.mr->Unwatch(&poller);
  }
}

void Channel::FinishReplyCall(const ResponseHeader& header, uint64_t sent_epoch) {
  last_server_time_us_ = header.time_us;
  RecordBreakerOutcome(false, sent_epoch);
  if (calls_since_busy_ < (1 << 30)) {
    ++calls_since_busy_;
  }
  if (!adaptive()) {
    return;
  }
  if (header.time_us <= kSwitchBackUs) {
    if (++fast_streak_ >= kFastCallsBeforeSwitchBack) {
      mode_ = Mode::kRemoteFetch;
      fast_streak_ = 0;
      slow_streak_ = 0;
      ++stats_.switches_to_fetch;
      // The next request header carries the new mode; no extra write needed.
      if (sim::TraceSink* trace = engine_.trace_sink()) {
        trace->Span("rfp", "server_reply_mode", reinterpret_cast<uint64_t>(this),
                    reply_mode_since_, engine_.now());
        trace->Instant("rfp", "switch_to_fetch", reinterpret_cast<uint64_t>(this),
                       engine_.now());
      }
    }
  } else {
    fast_streak_ = 0;
  }
}

uint32_t Channel::EffectiveFetch(uint32_t override_f) const {
  return std::clamp<uint32_t>(override_f, kHeaderBytes, static_cast<uint32_t>(block_bytes_));
}

sim::Task<void> Channel::ReissueRequest(int slot) {
  ClientSlot& cs = cslot(slot);
  ++stats_.reissues;
  if (++seq_ == 0) {
    ++seq_;  // 0 stays reserved for "never used"
  }
  cs.seq = seq_;
  cs.landing_ready = false;
  RequestHeader header;
  header.size_status = wire::PackRequestSizeStatus(cs.req_bytes, true, request_epoch_);
  header.seq = cs.seq;
  header.mode = static_cast<uint8_t>(mode_);
  header.slot = static_cast<uint8_t>(slot);
  header.deadline_ns = static_cast<uint64_t>(cs.deadline);
  client_.Store(req_off(slot), header);  // the payload is still staged
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnCpuStore(client_.remote_key().rkey, client_.abs(req_off(slot)), kReqHeaderBytes);
  }
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("rfp", "reissue", reinterpret_cast<uint64_t>(this), engine_.now());
  }
  co_await RcOp(/*from_client=*/true, /*is_read=*/false, req_off(slot), req_off(slot),
                kReqHeaderBytes + cs.req_bytes, "request reissue");
  // Recovery traffic, not a primary-path WRITE: request_writes stays 1:1
  // with issued calls so RoundTripsPerCall keeps the Table-3 semantics.
  ++stats_.recovery_request_writes;
}

bool Channel::ChecksumOk(int slot, uint32_t size) const {
  const uint64_t stored = client_.Load<uint64_t>(land_off(slot) + kHeaderBytes + size);
  const std::span<const std::byte> payload =
      client_.bytes().subspan(land_off(slot) + kHeaderBytes, size);
  return stored == wire::Checksum64(payload, cslot(slot).seq);
}

void Channel::FreeSlot(int slot) {
  ClientSlot& cs = cslot(slot);
  if (cs.state == ClientSlot::State::kPosted) {
    --posted_count_;
  } else if (cs.state == ClientSlot::State::kStaged) {
    --staged_count_;
  }
  cs = ClientSlot{};
}

// ---- Server side ---------------------------------------------------------------

bool Channel::TryServerRecv(std::span<std::byte> out, size_t* size) {
  for (int i = 0; i < options_.window; ++i) {
    const int s = (recv_rr_ + i) % options_.window;
    const RequestHeader header = server_.Load<RequestHeader>(req_off(s));
    if (!wire::UnpackStatus(header.size_status) || header.slot != s ||
        header.seq == sslot(s).last_recv_seq) {
      continue;
    }
    const uint32_t payload = wire::UnpackRequestSize(header.size_status);
    if (payload > out.size()) {
      throw std::length_error("rfp channel: request larger than server buffer");
    }
    if (check::FabricChecker* chk = fabric_->checker()) {
      // The request bytes are consumed by the server thread: every byte must
      // come from the client's WRITE, not a local scribble into the block.
      chk->OnAccept(check::ViolationKind::kRaceRecvStore, server_.remote_key().rkey,
                    server_.abs(req_off(s)), kReqHeaderBytes + payload, 0, "server recv");
    }
    server_.ReadBytes(req_off(s) + kReqHeaderBytes, out.subspan(0, payload));
    *size = payload;
    ServerSlot& ss = sslot(s);
    // A new request on this slot proves its previous response was consumed:
    // release the zero-copy entry pinned for it, if any.
    ss.pin.reset();
    ss.last_recv_seq = header.seq;
    ss.recv_time = engine_.now();
    last_recv_slot_ = s;
    last_recv_deadline_ns_ = header.deadline_ns;
    last_recv_epoch_ = wire::UnpackRequestEpoch(header.size_status);
    recv_rr_ = (s + 1) % options_.window;
    return true;
  }
  return false;
}

sim::Task<void> Channel::ServerSend(std::span<const std::byte> msg) {
  if (msg.size() > options_.max_message_bytes) {
    throw std::invalid_argument("rfp channel: response exceeds max_message_bytes");
  }
  const int s = last_recv_slot_;
  ServerSlot& ss = sslot(s);
  ss.pin.reset();  // a superseding send releases any pinned entry
  const size_t off = land_off(s);
  ResponseHeader header;
  header.size_status = wire::PackSizeStatus(static_cast<uint32_t>(msg.size()), true);
  header.time_us = SaturateTimeUs(engine_.now() - ss.recv_time);
  header.seq = ss.last_recv_seq;
  check::FabricChecker* chk = fabric_->checker();
  const uint32_t rkey = server_.remote_key().rkey;
  // Store order is the protocol's only fence against concurrent one-sided
  // READs: payload first, then the checksum trailer, and the header — whose
  // status bit + seq are what the client matches on — last. A client fetch
  // that lands between these stores sees a stale header and retries instead
  // of delivering a half-written payload. (The header used to be stored
  // first; the race detector flags that order as race.fetch_store.)
  server_.WriteBytes(off + kHeaderBytes, msg);
  if (chk != nullptr) {
    chk->OnCpuStore(rkey, server_.abs(off + kHeaderBytes), msg.size());
  }
  if (options_.checksum_responses) {
    server_.Store(off + kHeaderBytes + msg.size(), wire::Checksum64(msg, ss.last_recv_seq));
    if (chk != nullptr) {
      chk->OnCpuStore(rkey, server_.abs(off + kHeaderBytes + msg.size()), kChecksumBytes);
    }
  }
  server_.Store(off, header);
  if (chk != nullptr) {
    chk->OnCpuStore(rkey, server_.abs(off), kHeaderBytes);
    // The header store publishes the whole response: bytes stored after this
    // point (without a fresh publication) are torn for any matching fetch.
    chk->OnPublish(rkey, server_.abs(off), kHeaderBytes + msg.size() + ChecksumBytes());
  }
  if (BookResponse(s, static_cast<uint32_t>(msg.size()), /*header_only=*/false)) {
    co_await PushReply(s);
  }
}

sim::Task<void> Channel::ServerSendBusy(BusyReason reason, uint16_t retry_after_us) {
  ResponseHeader header;
  header.size_status = wire::PackBusy(reason);
  header.time_us = retry_after_us;
  if (reason == BusyReason::kAdmission) {
    ++stats_.shed_admission;
  } else {
    ++stats_.shed_deadline;
  }
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("rfp",
                   reason == BusyReason::kAdmission ? "shed_admission" : "shed_deadline",
                   reinterpret_cast<uint64_t>(this), engine_.now());
  }
  co_await ServerSendHeaderOnly(header);
}

sim::Task<void> Channel::ServerSendRedirect(uint32_t epoch, uint16_t leader_hint) {
  ResponseHeader header;
  header.size_status = wire::PackRedirect(epoch);
  header.time_us = leader_hint;
  ++stats_.shed_redirect;
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("rfp", "shed_redirect", reinterpret_cast<uint64_t>(this), engine_.now());
  }
  co_await ServerSendHeaderOnly(header);
}

sim::Task<void> Channel::ServerSendHeaderOnly(ResponseHeader header) {
  const int s = last_recv_slot_;
  ServerSlot& ss = sslot(s);
  ss.pin.reset();  // a superseding send releases any pinned entry
  header.seq = ss.last_recv_seq;
  const uint32_t rkey = server_.remote_key().rkey;
  server_.Store(land_off(s), header);
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnCpuStore(rkey, server_.abs(land_off(s)), kHeaderBytes);
    chk->OnPublish(rkey, server_.abs(land_off(s)), kHeaderBytes);
  }
  if (BookResponse(s, 0, /*header_only=*/true)) {
    co_await PushReply(s);
  }
}

bool Channel::BookResponse(int slot, uint32_t size, bool header_only) {
  ServerSlot& ss = sslot(slot);
  ss.last_resp_seq = ss.last_recv_seq;
  ss.last_resp_size = size;
  ss.last_resp_busy = header_only;
  ss.response_pushed = false;
  return !defer_server_pushes_ && server_visible_mode() == Mode::kServerReply;
}

void Channel::StageIndirect(int slot, uint16_t seq, uint16_t time_us,
                            std::span<const std::byte> prefix, const ZeroCopyRef& ref) {
  const size_t off = land_off(slot);
  wire::IndirectRef desc;
  desc.rkey = ref.rkey;
  desc.value_len = ref.len;
  desc.value_offset = static_cast<uint64_t>(ref.offset);
  desc.prefix_len = static_cast<uint32_t>(prefix.size());
  desc.epoch = ref.epoch;
  const uint32_t staged = static_cast<uint32_t>(sizeof(wire::IndirectRef) + prefix.size());
  check::FabricChecker* chk = fabric_->checker();
  const uint32_t rkey = server_.remote_key().rkey;
  // Same publication order as ServerSend: staged payload, checksum trailer,
  // header last. The header store also publishes the ENTRY range — from this
  // point the store must not touch the pinned value bytes until the channel
  // releases the pin, or a client fetch can assemble a torn value (the race
  // detector reports exactly that as race.fetch_store on the entry range).
  server_.Store(off + kHeaderBytes, desc);
  server_.WriteBytes(off + kHeaderBytes + sizeof(wire::IndirectRef), prefix);
  if (chk != nullptr) {
    chk->OnCpuStore(rkey, server_.abs(off + kHeaderBytes), staged);
  }
  if (options_.checksum_responses) {
    // The trailer covers the staged descriptor+prefix only; the value's
    // integrity is the pin contract, proven by the race detector.
    const std::span<const std::byte> staged_bytes =
        server_.bytes().subspan(off + kHeaderBytes, staged);
    server_.Store(off + kHeaderBytes + staged, wire::Checksum64(staged_bytes, seq));
    if (chk != nullptr) {
      chk->OnCpuStore(rkey, server_.abs(off + kHeaderBytes + staged), kChecksumBytes);
    }
  }
  ResponseHeader header;
  header.size_status = wire::PackIndirect(staged);
  header.time_us = time_us;
  header.seq = seq;
  server_.Store(off, header);
  if (chk != nullptr) {
    chk->OnCpuStore(rkey, server_.abs(off), kHeaderBytes);
    chk->OnPublish(rkey, server_.abs(off), kHeaderBytes + staged + ChecksumBytes());
    chk->OnPublish(ref.rkey, ref.offset, ref.len);
  }
  ++stats_.zero_copy_sends;
}

sim::Task<void> Channel::ServerSendZeroCopy(std::span<const std::byte> prefix,
                                            const ZeroCopyRef& ref) {
  if (!ref.valid()) {
    throw std::invalid_argument("rfp channel: zero-copy send without a valid entry ref");
  }
  const size_t staged = sizeof(wire::IndirectRef) + prefix.size();
  if (staged > options_.max_message_bytes) {
    throw std::invalid_argument("rfp channel: zero-copy prefix exceeds max_message_bytes");
  }
  if (server_visible_mode() == Mode::kServerReply) {
    // The client stopped fetching, so a descriptor alone cannot reach it:
    // materialize prefix+value once (together they must fit
    // max_message_bytes) and push through the regular copy path.
    rdma::MemoryRegion* entry = fabric_->FindRemote(rdma::RemoteKey{ref.rkey});
    if (entry == nullptr) {
      throw std::invalid_argument("rfp channel: zero-copy ref names an unregistered region");
    }
    std::vector<std::byte> full(prefix.size() + ref.len);
    rdma::CopyBytes(std::span<std::byte>(full).subspan(0, prefix.size()), prefix);
    entry->ReadBytes(ref.offset, std::span<std::byte>(full).subspan(prefix.size()));
    ++stats_.zero_copy_fallbacks;
    co_return co_await ServerSend(full);
  }
  const int s = last_recv_slot_;
  ServerSlot& ss = sslot(s);
  ss.pin.reset();  // a superseding send releases the previous entry
  StageIndirect(s, ss.last_recv_seq, SaturateTimeUs(engine_.now() - ss.recv_time), prefix, ref);
  ss.pin = ref.pin;
  // The client is fetching (checked above), so nothing is pushed.
  BookResponse(s, static_cast<uint32_t>(staged), /*header_only=*/false);
}

sim::Task<void> Channel::PushReply(int slot) {
  ServerSlot& ss = sslot(slot);
  // BUSY/REDIRECT responses carry no payload (and no checksum trailer):
  // push the header only.
  const uint32_t len =
      ss.last_resp_busy ? kHeaderBytes : kHeaderBytes + ss.last_resp_size + ChecksumBytes();
  co_await RcOp(/*from_client=*/false, /*is_read=*/false, land_off(slot), land_off(slot), len,
                "reply push");
  ss.response_pushed = true;
  ++stats_.reply_pushes;
}

sim::Task<void> Channel::MaybeResendAfterSwitch() {
  if (unsafe_switch_race_ || server_visible_mode() != Mode::kServerReply) {
    co_return;
  }
  for (int s = 0; s < options_.window; ++s) {
    if (!sslot(s).response_pushed && sslot(s).last_resp_seq != 0) {
      co_await PushReply(s);
    }
  }
}

sim::Task<void> Channel::FlushServerPushes() {
  if (server_visible_mode() != Mode::kServerReply) {
    co_return;  // remote fetch: responses are local stores, nothing to push
  }
  const ScratchLease scratch(*this);
  std::vector<BatchOp>& ops = scratch->ops;
  for (int s = 0; s < options_.window; ++s) {
    const ServerSlot& ss = sslot(s);
    if (ss.response_pushed || ss.last_resp_seq == 0) {
      continue;
    }
    const uint32_t len =
        ss.last_resp_busy ? kHeaderBytes : kHeaderBytes + ss.last_resp_size + ChecksumBytes();
    ops.push_back({s, /*is_read=*/false, land_off(s), land_off(s), len});
  }
  if (ops.empty()) {
    co_return;
  }
  if (ops.size() == 1) {
    // A lone push needs no doorbell batch; keeps single-slot visits off the
    // batch counters.
    co_await PushReply(ops[0].slot);
    co_return;
  }
  co_await RcBatch(/*from_client=*/false, ops, "reply push batch");
  for (const BatchOp& op : ops) {
    sslot(op.slot).response_pushed = true;
    ++stats_.reply_pushes;
  }
}

// ---- RC plumbing -----------------------------------------------------------------

sim::Task<size_t> Channel::CompleteIndirect(size_t land, uint32_t staged_size,
                                            std::span<std::byte> out, const char* what) {
  if (staged_size < sizeof(wire::IndirectRef)) {
    throw std::runtime_error("rfp channel: indirect response too small for its descriptor");
  }
  const wire::IndirectRef desc = client_.Load<wire::IndirectRef>(land + kHeaderBytes);
  if (desc.prefix_len != staged_size - sizeof(wire::IndirectRef)) {
    throw std::runtime_error("rfp channel: indirect descriptor prefix length mismatch");
  }
  const size_t total = static_cast<size_t>(desc.prefix_len) + desc.value_len;
  if (total > out.size()) {
    throw std::length_error("rfp channel: response larger than output buffer");
  }
  client_.ReadBytes(land + kHeaderBytes + sizeof(wire::IndirectRef),
                    out.subspan(0, desc.prefix_len));
  if (desc.value_len == 0) {
    co_return total;
  }
  // Land the value in a pool bounce span, not the landing ring: the entry can
  // be far larger than a ring block. The client still performs exactly one
  // local copy per call (bounce -> out), same as the staged path's
  // landing -> out.
  mem::Span bounce = client_pool_->Alloc(desc.value_len);
  try {
    const rdma::WorkCompletion wc =
        co_await RcOpAt(/*from_client=*/true, /*is_read=*/true, *bounce.mr, bounce.offset,
                        rdma::RemoteKey{desc.rkey}, static_cast<size_t>(desc.value_offset),
                        desc.value_len, what);
    ++stats_.fetch_reads;
    ++stats_.zero_copy_fetches;
    stats_.zero_copy_bytes += desc.value_len;
    if (check::FabricChecker* chk = fabric_->checker()) {
      // The entry bytes become part of the call's result: the store must not
      // have scribbled on them since publication (the pin contract).
      chk->OnAccept(check::ViolationKind::kRaceFetchStore, desc.rkey,
                    static_cast<size_t>(desc.value_offset), desc.value_len, wc.check_tick,
                    "entry fetch");
    }
    bounce.mr->ReadBytes(bounce.offset, out.subspan(desc.prefix_len, desc.value_len));
  } catch (...) {
    client_pool_->Free(bounce);
    throw;
  }
  client_pool_->Free(bounce);
  co_return total;
}

sim::Task<rdma::WorkCompletion> Channel::RcOp(bool from_client, bool is_read, size_t local_off,
                                              size_t remote_off, uint32_t len, const char* what) {
  // Ring offsets are ring-relative; shift by the pooled span's base here, at
  // the MR boundary.
  const RingView& local = from_client ? client_ : server_;
  const RingView& remote = from_client ? server_ : client_;
  return RcOpAt(from_client, is_read, *local.mr, local.abs(local_off), remote.remote_key(),
                remote.abs(remote_off), len, what);
}

sim::Task<rdma::WorkCompletion> Channel::RcOpAt(bool from_client, bool is_read,
                                                rdma::MemoryRegion& local_mr, size_t local_off,
                                                rdma::RemoteKey remote_key, size_t remote_off,
                                                uint32_t len, const char* what) {
  const bool request_write = from_client && !is_read;
  for (int attempt = 0;; ++attempt) {
    // Re-resolve the QP each attempt: a reconnect replaces it.
    rdma::QueuePair* qp = from_client ? client_qp_ : server_qp_;
    if (request_write) {
      BeginRequestWrite();
    }
    const rdma::WorkCompletion wc =
        is_read ? co_await qp->Read(local_mr, local_off, remote_key, remote_off, len)
                : co_await qp->Write(local_mr, local_off, remote_key, remote_off, len);
    if (request_write) {
      // An RC WRITE completes only after its bytes landed.
      --request_writes_in_flight_;
    }
    if (wc.status != rdma::WcStatus::kQpError) {
      CheckOk(wc, what);
      co_return wc;
    }
    if (attempt >= options_.max_reconnect_attempts) {
      CheckOk(wc, what);  // throws, reporting QP_ERROR
    }
    co_await EnsureConnected(qp);
  }
}

sim::Task<void> Channel::EnsureConnected(rdma::QueuePair* failed) {
  // If another actor is mid-reconnect (the client's fetch and the server's
  // push can observe the same failure), wait it out instead of racing a
  // second connection.
  while (reconnect_in_progress_) {
    co_await engine_.Sleep(kReconnectDelayNs / 4 + 1);
  }
  if (failed != client_qp_ && failed != server_qp_) {
    co_return;  // already replaced by whoever observed the error first
  }
  reconnect_in_progress_ = true;
  ++stats_.reconnects;
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("rfp", "reconnect", reinterpret_cast<uint64_t>(this), engine_.now());
  }
  // Connection re-establishment (QP teardown + out-of-band handshake).
  co_await engine_.Sleep(kReconnectDelayNs);
  rdma::QueuePair* old_client = client_qp_;
  rdma::QueuePair* old_server = server_qp_;
  auto [cqp, sqp] = fabric_->ConnectRc(*client_node_, *server_node_);
  client_qp_ = cqp;
  server_qp_ = sqp;
  // Tear the replaced endpoints out of the fabric. Without this every
  // reconnect leaked the old pair into the address map and the NIC's
  // active-QP census, and a stale pointer could keep posting on it.
  fabric_->RetireQp(old_client);
  fabric_->RetireQp(old_server);
  reconnect_in_progress_ = false;
}

Channel::ScratchLease::ScratchLease(Channel& channel) : channel_(channel) {
  if (channel_.scratch_pool_.empty()) {
    scratch_ = std::make_unique<BatchScratch>();
    return;
  }
  scratch_ = std::move(channel_.scratch_pool_.back());
  channel_.scratch_pool_.pop_back();
  scratch_->ops.clear();
  scratch_->slots.clear();
}

Channel::ScratchLease::~ScratchLease() { channel_.scratch_pool_.push_back(std::move(scratch_)); }

sim::Task<void> Channel::RcBatch(bool from_client, std::vector<BatchOp>& ops,
                                const char* what) {
  if (options_.window == 1) {
    // A one-slot channel carries at most one WR at a time, so there is
    // nothing to batch: each op goes out alone and books no doorbell batch.
    for (BatchOp& op : ops) {
      op.wc = co_await RcOp(from_client, op.is_read, op.local_off, op.remote_off, op.len, what);
    }
    co_return;
  }
  if (ops.empty()) {
    co_return;
  }
  BatchWaiter self;
  batch_waiters_.push_back(&self);
  // Deregisters on every exit, a throwing CheckOk included.
  struct Deregister {
    std::vector<BatchWaiter*>& waiters;
    BatchWaiter* self;
    ~Deregister() { std::erase(waiters, self); }
  } deregister{batch_waiters_, &self};
  for (BatchOp& op : ops) {
    op.done = false;
  }
  size_t remaining = ops.size();
  for (int attempt = 0; remaining > 0; ++attempt) {
    // Re-resolve the QP each attempt: a reconnect replaces it. Offsets in
    // `ops` are ring-relative; the pooled span base is applied here.
    rdma::QueuePair* qp = from_client ? client_qp_ : server_qp_;
    rdma::CompletionQueue* cq = qp->send_cq();
    const RingView& local = from_client ? client_ : server_;
    const RingView& remote = from_client ? server_ : client_;
    // Op i posts as wr_id first_wr_id + i: unique on the QP even while
    // another batch of this channel is in flight.
    self.first_wr_id = next_wr_id_;
    self.count = ops.size();
    next_wr_id_ += ops.size();
    size_t posted = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].done) {
        continue;
      }
      const BatchOp& op = ops[i];
      const uint64_t wr_id = self.first_wr_id + i;
      if (from_client && !op.is_read) {
        BeginRequestWrite();
      }
      // Every WR after the first rides the leader's doorbell at the batched
      // marginal issue cost (see rdma::kOutboundBatchMarginalNs).
      if (op.is_read) {
        qp->PostRead(wr_id, *local.mr, local.abs(op.local_off), remote.remote_key(),
                     remote.abs(op.remote_off), op.len,
                     /*batch_follower=*/posted > 0);
      } else {
        qp->PostWrite(wr_id, *local.mr, local.abs(op.local_off), remote.remote_key(),
                      remote.abs(op.remote_off), op.len,
                      /*batch_follower=*/posted > 0);
      }
      ++posted;
    }
    ++stats_.doorbell_batches;
    stats_.batch_occupancy.Record(static_cast<int64_t>(posted));
    stats_.batched_ops += posted - 1;
    bool qp_error = false;
    for (size_t c = 0; c < posted;) {
      rdma::WorkCompletion wc;
      if (!self.inbox.empty()) {
        wc = self.inbox.front();
        self.inbox.erase(self.inbox.begin());
      } else if (std::optional<rdma::WorkCompletion> polled = cq->Poll()) {
        wc = *polled;
      } else {
        co_await cq->WaitArrival();
        continue;
      }
      if (wc.wr_id - self.first_wr_id >= ops.size()) {
        RouteForeignCompletion(wc, cq);
        continue;
      }
      ++c;
      const size_t i = wc.wr_id - self.first_wr_id;
      ops[i].wc = wc;
      if (from_client && !ops[i].is_read) {
        // Counted down only as collected: a batch that throws first leaves
        // its other WRITEs counted, so the channel stays ready (a wasted
        // visit, never a missed request).
        --request_writes_in_flight_;
      }
      if (wc.status == rdma::WcStatus::kQpError) {
        qp_error = true;
        continue;
      }
      CheckOk(wc, what);
      ops[i].done = true;
      --remaining;
    }
    if (remaining == 0) {
      break;
    }
    if (!qp_error || attempt >= options_.max_reconnect_attempts) {
      for (size_t i = 0; i < ops.size(); ++i) {
        if (!ops[i].done) {
          CheckOk(ops[i].wc, what);  // throws, reporting the failure
        }
      }
    }
    co_await EnsureConnected(qp);
  }
}

void Channel::BeginRequestWrite() {
  ++request_writes_in_flight_;
  if (sweep_server_ != nullptr) {
    sweep_server_->MarkReady(sweep_index_);
  }
}

void Channel::RouteForeignCompletion(const rdma::WorkCompletion& wc,
                                     rdma::CompletionQueue* cq) {
  for (BatchWaiter* waiter : batch_waiters_) {
    if (wc.wr_id - waiter->first_wr_id < waiter->count) {
      waiter->inbox.push_back(wc);
      // The owner may be parked on this CQ with nothing left to arrive.
      cq->WakeAll();
      return;
    }
  }
}

// ---- Overload protection (docs/overload.md) ----------------------------------

void Channel::RecordBusyResponse(const ResponseHeader& header, uint64_t sent_epoch) {
  ++stats_.busy_responses;
  calls_since_busy_ = 0;
  last_retry_after_us_ = header.time_us;
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("rfp", "busy_response", reinterpret_cast<uint64_t>(this), engine_.now());
  }
  RecordBreakerOutcome(true, sent_epoch);
}

void Channel::RecordBreakerOutcome(bool bad, uint64_t sent_epoch) {
  if (!options_.breaker_enabled) {
    return;
  }
  if (breaker_state_ == BreakerState::kHalfOpen) {
    if (sent_epoch != breaker_epoch_) {
      // A call sent before the breaker (last) opened, still draining its
      // retries — possibly across a reconnect. It is not the probe: its
      // stale verdict must neither re-open the breaker (double-counting
      // breaker_opens for one outage and discarding the real probe's
      // result) nor close it early.
      return;
    }
    // This outcome is the half-open probe's verdict.
    if (bad) {
      OpenBreaker();
    } else {
      breaker_state_ = BreakerState::kClosed;
      breaker_window_calls_ = 0;
      breaker_window_bad_ = 0;
      TraceBreaker("breaker_close");
    }
    return;
  }
  if (breaker_state_ == BreakerState::kOpen) {
    return;  // outcomes of the call in flight while opening don't re-vote
  }
  ++breaker_window_calls_;
  if (bad) {
    ++breaker_window_bad_;
  }
  if (breaker_window_calls_ >= kBreakerWindow) {
    if (static_cast<double>(breaker_window_bad_) >=
        kBreakerFailureRate * static_cast<double>(breaker_window_calls_)) {
      OpenBreaker();
    }
    breaker_window_calls_ = 0;
    breaker_window_bad_ = 0;
  }
}

void Channel::OpenBreaker() {
  breaker_state_ = BreakerState::kOpen;
  ++stats_.breaker_opens;
  ++breaker_epoch_;  // outcomes of calls sent before this instant are stale
  // Open for the configured interval, stretched to the server's latest
  // retry-after hint when that is larger, and jittered by +/-25% so a fleet
  // of breakers doesn't reclose in lockstep.
  const sim::Time hint_ns = static_cast<sim::Time>(last_retry_after_us_) * 1000;
  const sim::Time base = std::max<sim::Time>(kBreakerOpenNs, hint_ns);
  const double jitter = 0.75 + 0.5 * rng_.NextDouble();
  breaker_open_until_ =
      engine_.now() + static_cast<sim::Time>(static_cast<double>(base) * jitter);
  breaker_window_calls_ = 0;
  breaker_window_bad_ = 0;
  TraceBreaker("breaker_open");
}

sim::Task<void> Channel::MaybeAwaitBreaker() {
  if (!options_.breaker_enabled || breaker_state_ != BreakerState::kOpen) {
    co_return;
  }
  if (breaker_open_until_ > engine_.now()) {
    co_await engine_.Sleep(breaker_open_until_ - engine_.now());
  }
  breaker_state_ = BreakerState::kHalfOpen;
  TraceBreaker("breaker_half_open");
}

sim::Time Channel::BusyRetryDelay(uint16_t hint_us, int nth_busy) {
  // Exponential from the server's hint (floored at 1 us), capped, jittered.
  sim::Time base = std::max<sim::Time>(static_cast<sim::Time>(hint_us) * 1000, 1000);
  const int shift = std::min(nth_busy - 1, 10);
  base = std::min<sim::Time>(base << shift, kBusyBackoffMaxNs);
  const double jitter = 0.75 + 0.5 * rng_.NextDouble();
  sim::Time delay = static_cast<sim::Time>(static_cast<double>(base) * jitter);
  if (options_.breaker_enabled && breaker_state_ == BreakerState::kOpen) {
    // The breaker opened mid-call: honor the full open interval before the
    // in-flight call retries, like the gate in ClientSend would.
    delay = std::max<sim::Time>(delay, breaker_open_until_ - engine_.now());
  }
  return std::max<sim::Time>(delay, 1);
}

void Channel::TransferAttemptReads(uint64_t* attempt_reads) {
  stats_.fetch_reads -= *attempt_reads;
  stats_.recovery_fetch_reads += *attempt_reads;
  *attempt_reads = 0;
}

void Channel::TraceBreaker(const char* what) {
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("rfp", what, reinterpret_cast<uint64_t>(this), engine_.now());
  }
}

}  // namespace rfp
