#include "src/conn/pooled.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/check/checker.h"
#include "src/obs/metrics.h"
#include "src/rfp/wire.h"

namespace conn {

namespace {

constexpr size_t kRpcIdBytes = sizeof(uint16_t);
// A control body: the reply address [client_node u32][client_qpn u32].
constexpr size_t kAddressBytes = 2 * sizeof(uint32_t);

// The pooled size field shares size_status with the cid's high byte, so a
// message (rpc id + body) must fit 16 bits.
static_assert(kPooledMaxMessageBytes + kRpcIdBytes <= rfp::wire::kPooledSizeMask,
              "kPooledMaxMessageBytes must fit the pooled 16-bit size field");
static_assert(kPooledRecvSlots >= kPooledQps, "every server QP needs a receive slot");
static_assert(kPooledClientRecvSlots >= 1, "a client needs a receive slot");

// One slot fits the larger (request) direction: header + rpc id + max body.
constexpr size_t kSlotBytes = rfp::kReqHeaderBytes + kRpcIdBytes + kPooledMaxMessageBytes;

// Each server QP's fair share of the shared receive slots.
constexpr size_t kRecvTarget = kPooledRecvSlots / kPooledQps;

// The key of a reply address in PooledServer::cid_of_.
uint64_t AddressKey(const rdma::AddressHandle& a) {
  return (static_cast<uint64_t>(a.node_id) << 32) | a.qp_num;
}

}  // namespace

// ---- Server -------------------------------------------------------------------

PooledServer::PooledServer(rdma::Fabric& fabric, rfp::RpcServer& rpc)
    : fabric_(fabric), rpc_(rpc), node_(rpc.node()) {
  for (int q = 0; q < kPooledQps; ++q) {
    qps_.push_back(fabric.CreateUd(node_));
  }
  // The shared receive arena and the per-QP tx staging come from the node's
  // registered-memory pool: bringing the tier up (and every client connect
  // after it) performs zero MR registrations.
  pool_ = mem::Pool::Shared(node_);
  arena_ = pool_->Alloc(kSlotBytes * (kPooledRecvSlots + kPooledQps));
  free_slots_.reserve(kPooledRecvSlots);
  for (int s = 0; s < kPooledRecvSlots; ++s) {
    free_slots_.push_back(static_cast<uint32_t>(s));
  }
}

PooledServer::~PooledServer() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"node", node_.name()}};
  reg.GetCounter("conn.pooled.connects", labels)->Add(connects_);
  reg.GetCounter("conn.pooled.disconnects", labels)->Add(disconnects_);
  reg.GetCounter("conn.pooled.requests", labels)->Add(requests_served_);
  if (dropped_requests_ > 0) {
    reg.GetCounter("conn.pooled.dropped_requests", labels)->Add(dropped_requests_);
  }
  for (size_t q = 0; q < pollers_.size(); ++q) {
    qps_[q]->recv_cq()->Unwatch(pollers_[q].get());
  }
  for (rdma::QueuePair* qp : qps_) {
    fabric_.RetireQp(qp);
  }
  pool_->Free(arena_);
}

size_t PooledServer::rx_offset(uint32_t slot) const {
  return arena_.offset + static_cast<size_t>(slot) * kSlotBytes;
}

size_t PooledServer::tx_offset(int qp_index) const {
  return arena_.offset + kSlotBytes * (kPooledRecvSlots + static_cast<size_t>(qp_index));
}

rdma::AddressHandle PooledServer::address(int qp_index) const {
  return rdma::AddressHandle{node_.id(), qps_[static_cast<size_t>(qp_index)]->qp_num()};
}

uint64_t PooledServer::recv_overflows() const {
  uint64_t total = 0;
  for (const rdma::QueuePair* qp : qps_) {
    total += qp->dropped_no_recv();
  }
  return total;
}

void PooledServer::TopUpRecv(int qp_index) {
  rdma::QueuePair* qp = qps_[static_cast<size_t>(qp_index)];
  // Fair-share target; the shared free list is what makes this an SRQ: a QP
  // that drains faster frees more slots and re-arms first, so slots flow to
  // wherever the burst lands instead of being strip-owned per QP.
  while (!free_slots_.empty() && qp->recv_queue_depth() < kRecvTarget) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    qp->PostRecv(slot, *arena_.mr, rx_offset(slot), static_cast<uint32_t>(kSlotBytes));
  }
}

void PooledServer::FreeSlot(uint32_t slot) {
  free_slots_.push_back(slot);
  for (size_t q = 0; q < pollers_.size(); ++q) {
    if (qps_[q]->recv_queue_depth() < kRecvTarget) {
      pollers_[q]->Wake();
    }
  }
}

uint32_t PooledServer::ConnectCid(const rdma::AddressHandle& reply) {
  // A retransmitted connect whose first reply was lost finds its cid here.
  const auto live = cid_of_.find(AddressKey(reply));
  if (live != cid_of_.end()) {
    return live->second;
  }
  // Monotonic, skipping 0 (the handshake sentinel) and any still-live cid
  // after a 24-bit wrap (16M connects within one server lifetime).
  do {
    next_cid_ = (next_cid_ + 1) & rfp::wire::kPooledCidMax;
  } while (next_cid_ == rfp::wire::kPooledCidNone || reply_of_.count(next_cid_) != 0);
  reply_of_[next_cid_] = reply;
  cid_of_[AddressKey(reply)] = next_cid_;
  ++connects_;
  if (check::FabricChecker* chk = fabric_.checker()) {
    chk->OnCidAssign(this, next_cid_);
  }
  return next_cid_;
}

void PooledServer::ReleaseCid(uint32_t cid) {
  const auto it = reply_of_.find(cid);
  if (it == reply_of_.end()) {
    return;  // a retransmit whose first ack was lost
  }
  cid_of_.erase(AddressKey(it->second));
  reply_of_.erase(it);
  ++disconnects_;
  if (check::FabricChecker* chk = fabric_.checker()) {
    chk->OnCidRelease(this, cid);
  }
}

void PooledServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (int q = 0; q < num_qps(); ++q) {
    pollers_.push_back(std::make_unique<sim::Poller>(fabric_.engine()));
    qps_[static_cast<size_t>(q)]->recv_cq()->Watch(pollers_.back().get());
  }
  for (int q = 0; q < num_qps(); ++q) {
    TopUpRecv(q);
    fabric_.engine().Spawn(ServeLoop(q));
  }
}

void PooledServer::Stop() {
  stop_ = true;
  for (const auto& poller : pollers_) {
    poller->Wake();
  }
}

namespace {

// Stages [ResponseHeader][payload] at `tx` and sends it. One tx slot per QP
// suffices: each ServeLoop awaits its send before polling again.
sim::Task<void> SendReply(rdma::QueuePair* qp, rdma::MemoryRegion* mr, size_t tx,
                          rdma::AddressHandle to, uint16_t seq, uint16_t time_us,
                          std::span<const std::byte> payload) {
  rfp::ResponseHeader reply;
  reply.size_status = rfp::wire::PackSizeStatus(static_cast<uint32_t>(payload.size()), true);
  reply.time_us = time_us;
  reply.seq = seq;
  mr->Store(tx, reply);
  if (!payload.empty()) {
    mr->WriteBytes(tx + rfp::kHeaderBytes, payload);
  }
  co_await qp->SendTo(to, *mr, tx,
                      static_cast<uint32_t>(rfp::kHeaderBytes + payload.size()));
}

}  // namespace

sim::Task<void> PooledServer::ServeLoop(int qp_index) {
  sim::Engine& engine = fabric_.engine();
  rdma::QueuePair* qp = qps_[static_cast<size_t>(qp_index)];
  rdma::MemoryRegion* mr = arena_.mr;
  const size_t tx = tx_offset(qp_index);
  const int thread_index = rpc_.num_threads() > 0 ? qp_index % rpc_.num_threads() : 0;
  std::vector<std::byte> request(kPooledMaxMessageBytes);
  std::vector<std::byte> response(kPooledMaxMessageBytes);
  sim::Poller& poller = *pollers_[static_cast<size_t>(qp_index)];
  while (!stop_) {
    TopUpRecv(qp_index);
    const auto wc = qp->recv_cq()->Poll();
    if (!wc.has_value()) {
      co_await poller.Park(kDatagramPollNs);
      continue;
    }
    const uint32_t slot = static_cast<uint32_t>(wc->wr_id);
    const size_t rx = rx_offset(slot);
    bool ok = wc->ok() && wc->byte_len >= rfp::kReqHeaderBytes + kRpcIdBytes;
    rfp::RequestHeader header;
    uint32_t cid = 0;
    uint16_t rpc_id = 0;
    size_t body_bytes = 0;
    if (ok) {
      header = mr->Load<rfp::RequestHeader>(rx);
      cid = rfp::wire::UnpackPooledCid(header);
      const uint32_t msg = rfp::wire::UnpackPooledSize(header);
      ok = msg >= kRpcIdBytes && rfp::kReqHeaderBytes + msg <= wc->byte_len;
      if (ok) {
        rpc_id = mr->Load<uint16_t>(rx + rfp::kReqHeaderBytes);
        body_bytes = msg - kRpcIdBytes;
        mr->ReadBytes(rx + rfp::kReqHeaderBytes + kRpcIdBytes,
                      std::span(request.data(), body_bytes));
      }
    }
    // The slot is consumed either way; the next top-up re-arms it on
    // whichever QP runs dry first.
    FreeSlot(slot);
    if (!ok) {
      ++dropped_requests_;
      continue;
    }
    if (rpc_id == kRpcConnect || rpc_id == kRpcDisconnect) {
      if (body_bytes < kAddressBytes) {
        ++dropped_requests_;
        continue;
      }
      rdma::AddressHandle reply_to;
      std::memcpy(&reply_to.node_id, request.data(), sizeof(uint32_t));
      std::memcpy(&reply_to.qp_num, request.data() + sizeof(uint32_t), sizeof(uint32_t));
      size_t reply_bytes = 0;
      if (rpc_id == kRpcConnect) {
        const uint32_t assigned = ConnectCid(reply_to);
        std::memcpy(response.data(), &assigned, sizeof(uint32_t));
        reply_bytes = sizeof(uint32_t);
      } else {
        ReleaseCid(cid);
      }
      co_await SendReply(qp, mr, tx, reply_to, header.seq, 0,
                         std::span<const std::byte>(response.data(), reply_bytes));
      continue;
    }
    const auto it = reply_of_.find(cid);
    if (cid == rfp::wire::kPooledCidNone || it == reply_of_.end()) {
      // Stale or closed connection: drop, the client's retransmit path
      // surfaces the failure.
      ++dropped_requests_;
      continue;
    }
    // Capture the reply address by value: the handler below may suspend, and
    // a concurrent disconnect on another QP would invalidate the iterator.
    const rdma::AddressHandle reply_to = it->second;
    const rfp::AsyncHandler* handler = rpc_.FindHandler(rpc_id);
    if (handler == nullptr) {
      ++dropped_requests_;
      continue;
    }
    // Same handler table as the channel sweep; handlers are idempotent by
    // the RFP contract, so the server executes every arrival (retransmits
    // included) without a dedup filter, as HERD/FaSST-style UD RPC does.
    const sim::Time begun = engine.now();
    const rfp::HandlerContext ctx{thread_index};
    const rfp::HandlerResult result =
        co_await (*handler)(ctx, std::span<const std::byte>(request.data(), body_bytes),
                            std::span<std::byte>(response.data(), response.size()));
    co_await engine.Sleep(rfp::kDispatchCpuNs + result.process_ns);
    size_t resp_size = result.response_size;
    if (result.zero_copy.valid()) {
      // Pooled responses are pushed datagrams — there is no client-READ leg
      // to fetch the entry — so an indirect result is materialized after the
      // prefix, like the dedicated channel's server-reply fallback.
      rdma::MemoryRegion* entry = fabric_.FindRemote(rdma::RemoteKey{result.zero_copy.rkey});
      const size_t value_len = result.zero_copy.len;
      if (entry == nullptr || resp_size + value_len > response.size()) {
        ++dropped_requests_;
        continue;
      }
      entry->ReadBytes(result.zero_copy.offset,
                       std::span(response.data() + resp_size, value_len));
      resp_size += value_len;
    }
    ++requests_served_;
    co_await SendReply(qp, mr, tx, reply_to, header.seq,
                       rfp::SaturateTimeUs(engine.now() - begun),
                       std::span<const std::byte>(response.data(), resp_size));
  }
}

// ---- Client -------------------------------------------------------------------

PooledClient::PooledClient(rdma::Fabric& fabric, rdma::Node& node, PooledServer& server)
    : fabric_(fabric), node_(node), server_(server) {
  server_addr_ = server.address(server.PickQp());
  qp_ = fabric.CreateUd(node);
  // Client buffers come from the node pool too: connecting a logical client
  // costs zero MR registrations end to end (the setup fast path).
  pool_ = mem::Pool::Shared(node);
  span_ = pool_->Alloc(kSlotBytes * (kPooledClientRecvSlots + 1));
  for (int i = 0; i < kPooledClientRecvSlots; ++i) {
    PostRecv(static_cast<uint64_t>(i));
  }
}

PooledClient::~PooledClient() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"client", node_.name()}};
  reg.GetCounter("conn.pooled.client_connects", labels)->Add(stats_.connects);
  reg.GetCounter("conn.pooled.client_calls", labels)->Add(stats_.calls);
  if (stats_.connects > 0) {
    reg.GetHistogram("conn.connect_ns", labels)->Merge(connect_latency_);
  }
  if (stats_.retransmits > 0) {
    reg.GetCounter("conn.pooled.client_retransmits", labels)->Add(stats_.retransmits);
  }
  if (stats_.failures > 0) {
    reg.GetCounter("conn.pooled.client_failures", labels)->Add(stats_.failures);
  }
  fabric_.RetireQp(qp_);
  pool_->Free(span_);
}

size_t PooledClient::slot_off(uint64_t slot) const {
  return span_.offset + static_cast<size_t>(slot) * kSlotBytes;
}

void PooledClient::PostRecv(uint64_t slot) {
  qp_->PostRecv(slot, *span_.mr, slot_off(slot), static_cast<uint32_t>(kSlotBytes));
}

sim::Task<size_t> PooledClient::Control(uint16_t rpc_id, std::span<std::byte> response) {
  const size_t body = slot_off(kPooledClientRecvSlots) + rfp::kReqHeaderBytes;
  span_.mr->Store(body, rpc_id);
  span_.mr->Store(body + kRpcIdBytes, node_.id());
  span_.mr->Store(body + kRpcIdBytes + sizeof(uint32_t), qp_->qp_num());
  co_return co_await Transact(static_cast<uint32_t>(kRpcIdBytes + kAddressBytes), response);
}

sim::Task<void> PooledClient::Connect() {
  if (connected()) {
    throw std::logic_error("conn pooled: already connected");
  }
  const sim::Time start = fabric_.engine().now();
  std::array<std::byte, sizeof(uint32_t)> out{};
  const size_t n = co_await Control(kRpcConnect, out);
  if (n < sizeof(uint32_t)) {
    throw std::runtime_error("conn pooled: malformed connect response");
  }
  std::memcpy(&cid_, out.data(), sizeof(uint32_t));
  ++stats_.connects;
  connect_latency_.Record(fabric_.engine().now() - start);
}

sim::Task<void> PooledClient::Disconnect() {
  if (!connected()) {
    co_return;
  }
  co_await Control(kRpcDisconnect, {});
  cid_ = 0;
  ++stats_.disconnects;
}

sim::Task<size_t> PooledClient::Call(uint16_t rpc_id, std::span<const std::byte> request,
                                     std::span<std::byte> response) {
  if (!connected()) {
    throw std::logic_error("conn pooled: Call before Connect");
  }
  if (request.size() > kPooledMaxMessageBytes) {
    throw std::invalid_argument("conn pooled: request exceeds kPooledMaxMessageBytes");
  }
  const size_t body = slot_off(kPooledClientRecvSlots) + rfp::kReqHeaderBytes;
  span_.mr->Store(body, rpc_id);
  if (!request.empty()) {
    span_.mr->WriteBytes(body + kRpcIdBytes, request);
  }
  ++stats_.calls;
  co_return co_await Transact(static_cast<uint32_t>(kRpcIdBytes + request.size()), response);
}

sim::Task<size_t> PooledClient::Transact(uint32_t body_bytes, std::span<std::byte> response) {
  sim::Engine& engine = fabric_.engine();
  rdma::MemoryRegion& mr = *span_.mr;
  const size_t tx = slot_off(kPooledClientRecvSlots);
  const uint16_t seq = ++next_seq_;
  rfp::RequestHeader header;
  rfp::wire::PackPooledRequest(header, body_bytes, cid_, seq);
  mr.Store(tx, header);
  int transmits = 0;
  sim::Time deadline = 0;
  // Between a response landing and the retransmit deadline every poll finds
  // an empty CQ, so the loop parks until one of them.
  sim::Poller poller(engine);
  while (true) {
    if (transmits == 0 || engine.now() >= deadline) {
      if (transmits > kDatagramMaxRetransmits) {
        ++stats_.failures;
        throw std::runtime_error("conn pooled: call timed out after retransmits");
      }
      if (transmits > 0) {
        ++stats_.retransmits;
      }
      ++transmits;
      ++stats_.sends;
      co_await qp_->SendTo(server_addr_, mr, tx, rfp::kReqHeaderBytes + body_bytes);
      deadline = engine.now() + kDatagramRetryTimeoutNs;
    }
    while (auto wc = qp_->recv_cq()->Poll()) {
      const size_t rx = slot_off(wc->wr_id);
      const bool match = wc->ok() && wc->byte_len >= rfp::kHeaderBytes &&
                         mr.Load<rfp::ResponseHeader>(rx).seq == seq;
      const size_t payload = match ? wc->byte_len - rfp::kHeaderBytes : 0;
      const bool fits = payload <= response.size();
      if (match && fits) {
        mr.ReadBytes(rx + rfp::kHeaderBytes, response.subspan(0, payload));
      }
      PostRecv(wc->wr_id);
      if (match) {
        if (!fits) {
          throw std::length_error("conn pooled: response larger than output buffer");
        }
        co_return payload;
      }
      ++stats_.duplicates;
    }
    qp_->recv_cq()->Watch(&poller);
    co_await poller.Park(kDatagramPollNs, deadline);
    qp_->recv_cq()->Unwatch(&poller);
  }
}

}  // namespace conn
