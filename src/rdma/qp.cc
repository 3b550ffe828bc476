#include "src/rdma/qp.h"

#include <memory>
#include <optional>
#include <utility>

#include "src/check/checker.h"
#include "src/rdma/fabric.h"
#include "src/rdma/nic.h"
#include "src/rdma/node.h"

namespace rdma {

namespace {

WorkCompletion MakeWc(Opcode op, uint32_t len, uint32_t qpn) {
  WorkCompletion wc;
  wc.opcode = op;
  wc.byte_len = len;
  wc.qp_num = qpn;
  return wc;
}

}  // namespace

void QueuePair::SetError() {
  state_ = QpState::kError;
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnQpError(qp_num_);
  }
}

void QueuePair::Recover() {
  state_ = QpState::kReady;
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnQpRecovered(qp_num_);
  }
}

bool QueuePair::TakeTicket(uint64_t ticket) {
  if (ticket == 0) {
    return true;
  }
  if (completed_ticket_ + 1 != ticket) {
    return false;
  }
  completed_ticket_ = ticket;
  if (order_waiters_ != nullptr) {
    order_waiters_->NotifyAll();
  }
  return true;
}

sim::Task<void> QueuePair::WaitForTicket(uint64_t ticket) {
  do {
    if (order_waiters_ == nullptr) {
      order_waiters_ = std::make_unique<sim::Notifier>(fabric_->engine());
    }
    co_await order_waiters_->Wait();
  } while (!TakeTicket(ticket));
}

void QueuePair::BeginOp() {
  if (outstanding_ops_++ == 0) {
    local_->nic().BeginOutbound();
  }
}

void QueuePair::EndOp() {
  if (--outstanding_ops_ == 0) {
    local_->nic().EndOutbound();
  }
}

bool QueuePair::Refuse(WorkCompletion& wc, bool supported, const MemoryRegion& local,
                       size_t local_off, bool batch_follower) {
  check::FabricChecker* chk = fabric_->checker();
  if (chk != nullptr) {
    chk->OnPost(qp_num_, wc.opcode, in_error(), supported, retired_, batch_follower);
  }
  if (retired_) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    return true;
  }
  if (!supported) {
    wc.status = WcStatus::kUnsupportedOp;
    return true;
  }
  if (in_error()) {
    wc.status = WcStatus::kQpError;
    wc.byte_len = 0;
    return true;
  }
  if (!local.InBounds(local_off, wc.byte_len)) {
    if (chk != nullptr) {
      chk->OnLocalBounds(qp_num_, wc.opcode, local_off, wc.byte_len, local.size(), false);
      chk->OnOpEnd(qp_num_);
    }
    wc.status = WcStatus::kLocalProtError;
    return true;
  }
  return false;
}

WorkCompletion QueuePair::Finish(const WorkCompletion& wc, std::optional<uint64_t> wr_id) {
  EndOp();
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnOpEnd(qp_num_);
  }
  return Complete(wc, wr_id);
}

WorkCompletion QueuePair::Complete(WorkCompletion wc, std::optional<uint64_t> wr_id) {
  if (wr_id.has_value()) {
    wc.wr_id = *wr_id;
    send_cq_->Push(wc);
  }
  return wc;
}

sim::Task<WorkCompletion> QueuePair::Read(MemoryRegion& local, size_t local_off, RemoteKey rkey,
                                          size_t remote_off, uint32_t len, bool batch_follower) {
  return ReadOp(local, local_off, rkey, remote_off, len, batch_follower, std::nullopt);
}

sim::Task<WorkCompletion> QueuePair::ReadOp(MemoryRegion& local, size_t local_off,
                                            RemoteKey rkey, size_t remote_off, uint32_t len,
                                            bool batch_follower, std::optional<uint64_t> wr_id) {
  WorkCompletion wc = MakeWc(Opcode::kRead, len, qp_num_);
  if (Refuse(wc, type_ == QpType::kRc, local, local_off, batch_follower)) {
    co_return Complete(wc, wr_id);
  }

  sim::Engine& eng = fabric_->engine();
  Nic& nic = local_->nic();
  check::FabricChecker* chk = fabric_->checker();
  const uint64_t ticket = ++next_ticket_;
  BeginOp();
  co_await nic.PostLock();
  co_await nic.PostCpu();
  // The READ request itself carries no payload outward.
  co_await nic.IssueOneSided(Opcode::kRead, 0, batch_follower);
  co_await eng.Sleep(fabric_->WireDelay(local_, peer_, /*reliable=*/true));

  MemoryRegion* target = fabric_->FindRemote(rkey);
  if (chk != nullptr) {
    chk->OnRemoteAccess(qp_num_, Opcode::kRead, rkey.rkey, remote_off, len, peer_);
  }
  const bool ok = target != nullptr && target->node() == peer_ &&
                  target->InBounds(remote_off, len) && target->AllowsRemoteRead();
  co_await peer_->nic().ServeInboundOneSided(ok ? len : 0);
  // Hardware DMAs the remote bytes at the instant the serving engine handles
  // the request; concurrent remote writes before/after this instant are
  // naturally visible (or not), which is how torn reads arise.
  Payload snapshot;
  if (ok) {
    snapshot = Payload(len);
    target->ReadBytes(remote_off, snapshot.bytes());
    if (chk != nullptr) {
      wc.check_tick = chk->OnReadSnapshot(rkey.rkey, remote_off, len);
    }
  }

  co_await eng.Sleep(fabric_->WireDelay(peer_, local_, /*reliable=*/true));
  co_await nic.AbsorbReadResponse(ok ? len : 0);
  if (ok) {
    local.WriteBytes(local_off, snapshot.bytes());
  } else {
    wc.status = WcStatus::kRemoteAccessError;
    wc.byte_len = 0;
  }
  co_await AwaitTicket(ticket);
  co_await nic.CompletionOverhead();
  co_return Finish(wc, wr_id);
}

sim::Task<WorkCompletion> QueuePair::Write(MemoryRegion& local, size_t local_off, RemoteKey rkey,
                                           size_t remote_off, uint32_t len, bool batch_follower) {
  return WriteOp(local, local_off, rkey, remote_off, len, batch_follower, std::nullopt);
}

sim::Task<WorkCompletion> QueuePair::WriteOp(MemoryRegion& local, size_t local_off,
                                             RemoteKey rkey, size_t remote_off, uint32_t len,
                                             bool batch_follower, std::optional<uint64_t> wr_id) {
  WorkCompletion wc = MakeWc(Opcode::kWrite, len, qp_num_);
  if (Refuse(wc, type_ != QpType::kUd, local, local_off, batch_follower)) {
    co_return Complete(wc, wr_id);
  }

  sim::Engine& eng = fabric_->engine();
  Nic& nic = local_->nic();
  check::FabricChecker* chk = fabric_->checker();
  const uint64_t ticket = type_ == QpType::kRc ? ++next_ticket_ : 0;
  BeginOp();
  co_await nic.PostLock();
  co_await nic.PostCpu();
  co_await nic.IssueOneSided(Opcode::kWrite, len, batch_follower);
  // The payload leaves the local buffer during issue; snapshot it so the
  // caller may reuse the buffer immediately after completion.
  Payload payload(len);
  local.ReadBytes(local_off, payload.bytes());

  if (type_ == QpType::kUc) {
    // Fire-and-forget: local completion does not wait for delivery.
    eng.Spawn(DeliverUcWrite(rkey, remote_off, std::move(payload)));
    co_await nic.CompletionOverhead();
    co_return Finish(wc, wr_id);
  }

  co_await eng.Sleep(fabric_->WireDelay(local_, peer_, /*reliable=*/true));
  MemoryRegion* target = fabric_->FindRemote(rkey);
  if (chk != nullptr) {
    chk->OnRemoteAccess(qp_num_, Opcode::kWrite, rkey.rkey, remote_off, len, peer_);
  }
  const bool ok = target != nullptr && target->node() == peer_ &&
                  target->InBounds(remote_off, len) && target->AllowsRemoteWrite();
  co_await peer_->nic().ServeInboundOneSided(ok ? len : 0);
  if (ok) {
    target->WriteBytes(remote_off, payload.bytes());
    if (chk != nullptr) {
      chk->OnRemoteWrite(rkey.rkey, remote_off, len);
    }
  } else {
    wc.status = WcStatus::kRemoteAccessError;
    wc.byte_len = 0;
  }
  co_await eng.Sleep(fabric_->WireDelay(peer_, local_, /*reliable=*/true));  // ACK
  co_await AwaitTicket(ticket);
  co_await nic.CompletionOverhead();
  co_return Finish(wc, wr_id);
}

sim::Task<void> QueuePair::DeliverUcWrite(RemoteKey rkey, size_t remote_off, Payload payload) {
  sim::Engine& eng = fabric_->engine();
  if (fabric_->DrawUnreliableLoss(local_, peer_)) {
    co_return;  // dropped in the network; nobody ever knows
  }
  co_await eng.Sleep(fabric_->WireDelay(local_, peer_, /*reliable=*/false));
  MemoryRegion* target = fabric_->FindRemote(rkey);
  const bool ok = target != nullptr && target->node() == peer_ &&
                  target->InBounds(remote_off, payload.size()) && target->AllowsRemoteWrite();
  co_await peer_->nic().ServeInboundOneSided(ok ? static_cast<uint32_t>(payload.size()) : 0);
  if (ok) {
    target->WriteBytes(remote_off, payload.bytes());
    if (check::FabricChecker* chk = fabric_->checker()) {
      chk->OnRemoteWrite(rkey.rkey, remote_off, payload.size());
    }
  }
}

sim::Task<WorkCompletion> QueuePair::Send(MemoryRegion& local, size_t local_off, uint32_t len) {
  return SendOp(local, local_off, len, std::nullopt);
}

sim::Task<WorkCompletion> QueuePair::SendOp(MemoryRegion& local, size_t local_off, uint32_t len,
                                            std::optional<uint64_t> wr_id) {
  WorkCompletion wc = MakeWc(Opcode::kSend, len, qp_num_);
  // UD needs an explicit destination (SendTo).
  if (Refuse(wc, type_ != QpType::kUd, local, local_off, false)) {
    co_return Complete(wc, wr_id);
  }

  sim::Engine& eng = fabric_->engine();
  Nic& nic = local_->nic();
  const uint64_t ticket = type_ == QpType::kRc ? ++next_ticket_ : 0;
  BeginOp();
  co_await nic.PostLock();
  co_await nic.PostCpu();
  co_await nic.IssueTwoSided(len);
  Payload payload(len);
  local.ReadBytes(local_off, payload.bytes());

  QueuePair* dst = fabric_->FindQp(peer_->id(), PeerQpNum());
  if (type_ == QpType::kUc) {
    eng.Spawn(DeliverSend(dst, std::move(payload), /*reliable=*/false));
    co_await nic.CompletionOverhead();
    co_return Finish(wc, wr_id);
  }

  // RC: delivery result is visible to the sender.
  co_await eng.Sleep(fabric_->WireDelay(local_, peer_, /*reliable=*/true));
  co_await peer_->nic().ServeInboundTwoSided(len);
  if (dst != nullptr && (dst->in_error() || dst->retired_)) {
    wc.status = WcStatus::kQpError;  // remote endpoint torn down
    wc.byte_len = 0;
  } else if (dst == nullptr || dst->recv_queue_.empty()) {
    wc.status = WcStatus::kRnrRetryExceeded;
    wc.byte_len = 0;
  } else {
    DeliverIntoRecv(dst, payload.bytes(), qp_num_);
  }
  co_await eng.Sleep(fabric_->WireDelay(peer_, local_, /*reliable=*/true));  // ACK
  co_await AwaitTicket(ticket);
  co_await nic.CompletionOverhead();
  co_return Finish(wc, wr_id);
}

sim::Task<WorkCompletion> QueuePair::SendTo(AddressHandle ah, MemoryRegion& local,
                                            size_t local_off, uint32_t len) {
  WorkCompletion wc = MakeWc(Opcode::kSend, len, qp_num_);
  if (Refuse(wc, type_ == QpType::kUd, local, local_off, false)) {
    co_return wc;
  }

  sim::Engine& eng = fabric_->engine();
  Nic& nic = local_->nic();
  BeginOp();
  co_await nic.PostLock();
  co_await nic.PostCpu();
  co_await nic.IssueTwoSided(len);
  Payload payload(len);
  local.ReadBytes(local_off, payload.bytes());
  QueuePair* dst = fabric_->FindQp(ah.node_id, ah.qp_num);
  if (dst != nullptr && dst->type_ == QpType::kUd) {
    eng.Spawn(DeliverSend(dst, std::move(payload), /*reliable=*/false));
  }
  co_await nic.CompletionOverhead();
  co_return Finish(wc, std::nullopt);
}

sim::Task<void> QueuePair::DeliverSend(QueuePair* dst, Payload payload, bool reliable) {
  sim::Engine& eng = fabric_->engine();
  if (!reliable && fabric_->DrawUnreliableLoss(local_, dst == nullptr ? nullptr : dst->local_)) {
    co_return;
  }
  if (dst == nullptr) {
    co_return;
  }
  co_await eng.Sleep(fabric_->WireDelay(local_, dst->local_, /*reliable=*/false));
  co_await dst->local_->nic().ServeInboundTwoSided(static_cast<uint32_t>(payload.size()));
  if (dst->in_error() || dst->retired_) {
    ++dst->dropped_no_recv_;  // endpoint torn down; datagram evaporates
    co_return;
  }
  if (!dst->recv_queue_.empty()) {
    DeliverIntoRecv(dst, payload.bytes(), qp_num_);
  } else {
    // Unreliable transports drop silently when no RECV is posted.
    ++dst->dropped_no_recv_;
  }
}

void QueuePair::DeliverIntoRecv(QueuePair* dst, std::span<const std::byte> payload,
                                uint32_t src_qpn) {
  PostedRecv slot = dst->recv_queue_.front();
  dst->recv_queue_.pop_front();
  WorkCompletion rwc = MakeWc(Opcode::kRecv, static_cast<uint32_t>(payload.size()), dst->qp_num_);
  rwc.wr_id = slot.wr_id;
  rwc.src_qp_num = src_qpn;
  if (payload.size() > slot.capacity) {
    rwc.status = WcStatus::kLocalProtError;  // receive buffer too small
    rwc.byte_len = 0;
  } else {
    slot.mr->WriteBytes(slot.offset, payload);
  }
  if (dst->recv_cq_ != nullptr) {
    dst->recv_cq_->Push(rwc);
  }
}

void QueuePair::PostRecv(uint64_t wr_id, MemoryRegion& mr, size_t offset, uint32_t capacity) {
  recv_queue_.push_back(PostedRecv{wr_id, &mr, offset, capacity});
}

uint32_t QueuePair::PeerQpNum() const { return peer_qp_num_; }

void QueuePair::PostRead(uint64_t wr_id, MemoryRegion& local, size_t local_off, RemoteKey rkey,
                         size_t remote_off, uint32_t len, bool batch_follower) {
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnAsyncPost(qp_num_, wr_id);
  }
  fabric_->engine().Spawn(ReadOp(local, local_off, rkey, remote_off, len, batch_follower, wr_id));
}

void QueuePair::PostWrite(uint64_t wr_id, MemoryRegion& local, size_t local_off, RemoteKey rkey,
                          size_t remote_off, uint32_t len, bool batch_follower) {
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnAsyncPost(qp_num_, wr_id);
  }
  fabric_->engine().Spawn(WriteOp(local, local_off, rkey, remote_off, len, batch_follower, wr_id));
}

void QueuePair::PostSend(uint64_t wr_id, MemoryRegion& local, size_t local_off, uint32_t len) {
  if (check::FabricChecker* chk = fabric_->checker()) {
    chk->OnAsyncPost(qp_num_, wr_id);
  }
  fabric_->engine().Spawn(SendOp(local, local_off, len, wr_id));
}

}  // namespace rdma
