// Queue pairs.
//
// A QueuePair executes operations against the fabric's timing model while
// copying real bytes between memory regions. The op-support matrix follows
// the hardware (paper Section 5): RC supports READ/WRITE/SEND, UC drops
// READ, UD supports SEND only (addressed per-op with an AddressHandle).
//
// Two usage styles:
//  * synchronous — `co_await qp.Read(...)` returns the WorkCompletion
//    directly (post + spin-until-complete, the pattern the paper's clients
//    use: "we always wait for an RDMA operation's completion before
//    starting the next operation");
//  * asynchronous — `PostRead(wr_id, ...)` returns immediately and the
//    completion lands on the send CQ.
//
// Either way an op is one coroutine: it awaits each NIC station (nic.h) and
// wire delay on its own frame, and a posted op pushes its own completion.
// The bytes an op moves are snapshotted into a Payload, a buffer drawn from
// a thread-local size-class pool, at the instant the hardware would DMA
// them.

#ifndef SRC_RDMA_QP_H_
#define SRC_RDMA_QP_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "src/rdma/cq.h"
#include "src/rdma/memory.h"
#include "src/rdma/types.h"
#include "src/sim/frame_pool.h"
#include "src/sim/signal.h"
#include "src/sim/task.h"

namespace rdma {

class Fabric;
class Node;

// Lifecycle of a QP, a two-state rendition of the verbs state machine
// (INIT/RTR/RTS collapse into kReady; SQE/ERR collapse into kError).
enum class QpState : uint8_t {
  kReady,
  kError,
};

class QueuePair {
 public:
  QueuePair(Fabric* fabric, QpType type, uint32_t qp_num, Node* local, Node* peer,
            CompletionQueue* send_cq, CompletionQueue* recv_cq)
      : fabric_(fabric), type_(type), qp_num_(qp_num), local_(local), peer_(peer),
        send_cq_(send_cq), recv_cq_(recv_cq) {}

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  QpType type() const { return type_; }
  uint32_t qp_num() const { return qp_num_; }
  Node* local_node() const { return local_; }
  Node* peer_node() const { return peer_; }
  CompletionQueue* send_cq() const { return send_cq_; }
  CompletionQueue* recv_cq() const { return recv_cq_; }

  // ---- Error state (fault injection / recovery) ---------------------------

  QpState state() const { return state_; }
  bool in_error() const { return state_ == QpState::kError; }

  // True once Fabric::RetireQp removed this endpoint from the fabric (its
  // connection was replaced). Retired QPs reject every post with kQpError.
  bool retired() const { return retired_; }

  // Transitions to the error state: every subsequent operation completes
  // immediately with WcStatus::kQpError, and in-bound messages addressed to
  // this QP are dropped. Operations already in flight complete normally
  // (their packets are already on the wire).
  void SetError();

  // Returns the QP to service. Real deployments replace an error'd QP with a
  // fresh connection (see Fabric::ConnectRc); this exists for tests and for
  // transports with no connection state to rebuild.
  void Recover();

  // ---- Synchronous one-sided operations -----------------------------------

  // RDMA READ: fetches `len` bytes from (rkey, remote_off) on the connected
  // peer into `local` at `local_off`. `batch_follower` marks an op posted in
  // the same doorbell batch as an earlier op on this QP; it pays the NIC's
  // marginal batched-issue cost (kOutboundBatchMarginalNs)
  // instead of the full out-bound service.
  sim::Task<WorkCompletion> Read(MemoryRegion& local, size_t local_off, RemoteKey rkey,
                                 size_t remote_off, uint32_t len, bool batch_follower = false);

  // RDMA WRITE: pushes `len` bytes from `local` at `local_off` into
  // (rkey, remote_off) on the connected peer.
  sim::Task<WorkCompletion> Write(MemoryRegion& local, size_t local_off, RemoteKey rkey,
                                  size_t remote_off, uint32_t len, bool batch_follower = false);

  // ---- Synchronous two-sided operations ------------------------------------

  // SEND on a connected QP (RC/UC): consumes a posted RECV at the peer.
  sim::Task<WorkCompletion> Send(MemoryRegion& local, size_t local_off, uint32_t len);

  // SEND on a UD QP to an explicit destination.
  sim::Task<WorkCompletion> SendTo(AddressHandle ah, MemoryRegion& local, size_t local_off,
                                   uint32_t len);

  // Posts a receive buffer; incoming SENDs consume buffers in FIFO order and
  // deliver a kRecv completion (with the data length) to the recv CQ.
  void PostRecv(uint64_t wr_id, MemoryRegion& mr, size_t offset, uint32_t capacity);

  size_t recv_queue_depth() const { return recv_queue_.size(); }

  // Incoming unreliable messages dropped because no RECV was posted
  // (invisible to the sender; the application-level symptom is a timeout).
  uint64_t dropped_no_recv() const { return dropped_no_recv_; }

  // ---- Asynchronous posts (completion delivered to the send CQ) -----------

  void PostRead(uint64_t wr_id, MemoryRegion& local, size_t local_off, RemoteKey rkey,
                size_t remote_off, uint32_t len, bool batch_follower = false);
  void PostWrite(uint64_t wr_id, MemoryRegion& local, size_t local_off, RemoteKey rkey,
                 size_t remote_off, uint32_t len, bool batch_follower = false);
  void PostSend(uint64_t wr_id, MemoryRegion& local, size_t local_off, uint32_t len);

 private:
  friend class Fabric;

  struct PostedRecv {
    uint64_t wr_id;
    MemoryRegion* mr;
    size_t offset;
    uint32_t capacity;
  };

  // Tracks this QP's outstanding-op count and registers the QP as an active
  // poster on the NIC only on 0<->1 transitions: the per-node contention
  // term counts posting contexts, not pipelined ops (a deep async pipeline
  // on one QP is one context).
  void BeginOp();
  void EndOp();

  // A snapshot of the bytes an op carries: move-only, its buffer drawn from a
  // thread-local size-class pool (sim::internal::SizeClassPool), so a warm
  // data path copies payloads without calling ::operator new. Buffers above
  // the pool's cap, and every buffer under ASan, come from ::operator new.
  class Payload {
   public:
    Payload() = default;
    explicit Payload(size_t size)
        : data_(size == 0 ? nullptr : static_cast<std::byte*>(Pool::Allocate(size))),
          size_(size) {}
    Payload(Payload&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
    Payload& operator=(Payload&& other) noexcept {
      std::swap(data_, other.data_);
      std::swap(size_, other.size_);
      return *this;
    }
    ~Payload() {
      if (data_ != nullptr) {
        Pool::Deallocate(data_, size_);
      }
    }

    size_t size() const { return size_; }
    std::span<std::byte> bytes() { return {data_, size_}; }
    std::span<const std::byte> bytes() const { return {data_, size_}; }

   private:
    struct Tag {};
    using Pool = sim::internal::SizeClassPool<Tag, 64, 16384>;

    std::byte* data_ = nullptr;
    size_t size_ = 0;
  };

  // RC send-queue ordering: every RC op takes a ticket at post time and its
  // completion waits for all earlier tickets, so completions are generated in
  // post order even when a faulted link's retransmissions reorder arrival
  // times (real RC hardware acks strictly in order). Fault-free the gate is
  // never taken: FIFO queueing already yields in-order completion, so the
  // event schedule is byte-identical to a build without the gate. An
  // in-order ticket (or ticket 0, for UC) passes at the co_await with no
  // frame; an early one waits on WaitForTicket's frame, which the awaiter
  // owns.
  class [[nodiscard]] TicketAwaiter {
   public:
    TicketAwaiter(QueuePair* qp, uint64_t ticket) : qp_(qp), ticket_(ticket) {}

    bool await_ready() { return qp_->TakeTicket(ticket_); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      waiting_ = qp_->WaitForTicket(ticket_);
      return std::move(waiting_).operator co_await().await_suspend(h);
    }
    void await_resume() {
      if (waiting_.valid()) {
        std::move(waiting_).operator co_await().await_resume();
      }
    }

   private:
    QueuePair* qp_;
    uint64_t ticket_;
    sim::Task<void> waiting_;
  };
  TicketAwaiter AwaitTicket(uint64_t ticket) { return TicketAwaiter(this, ticket); }
  // Completes `ticket` if every earlier one has completed.
  bool TakeTicket(uint64_t ticket);
  sim::Task<void> WaitForTicket(uint64_t ticket);

  // The op bodies. `wr_id` is set for a posted op, which pushes its
  // completion to the send CQ; a synchronous op leaves it empty and only
  // returns the completion.
  sim::Task<WorkCompletion> ReadOp(MemoryRegion& local, size_t local_off, RemoteKey rkey,
                                   size_t remote_off, uint32_t len, bool batch_follower,
                                   std::optional<uint64_t> wr_id);
  sim::Task<WorkCompletion> WriteOp(MemoryRegion& local, size_t local_off, RemoteKey rkey,
                                    size_t remote_off, uint32_t len, bool batch_follower,
                                    std::optional<uint64_t> wr_id);
  sim::Task<WorkCompletion> SendOp(MemoryRegion& local, size_t local_off, uint32_t len,
                                   std::optional<uint64_t> wr_id);
  // Fails `wc` with the error a post meets before it reaches the NIC (a
  // retired or errored QP, an op the QP type does not support, a local
  // buffer out of bounds) and returns true; returns false for a post the NIC
  // takes. `supported` is the QP type's op-support verdict.
  bool Refuse(WorkCompletion& wc, bool supported, const MemoryRegion& local, size_t local_off,
              bool batch_follower);
  // Ends an op the NIC took: releases its posting slot and closes it for
  // the checker. Then Complete.
  WorkCompletion Finish(const WorkCompletion& wc, std::optional<uint64_t> wr_id);
  // Pushes a posted op's completion; returns `wc` for a synchronous caller.
  WorkCompletion Complete(WorkCompletion wc, std::optional<uint64_t> wr_id);

  // Detached continuation carrying an unacknowledged UC WRITE to its target.
  sim::Task<void> DeliverUcWrite(RemoteKey rkey, size_t remote_off, Payload payload);
  // Detached continuation delivering a SEND (UC or UD) to a destination QP.
  sim::Task<void> DeliverSend(QueuePair* dst, Payload payload, bool reliable);
  // Consumes the head RECV buffer of `dst` and pushes the recv completion.
  void DeliverIntoRecv(QueuePair* dst, std::span<const std::byte> payload, uint32_t src_qpn);

  uint32_t PeerQpNum() const;

  Fabric* fabric_;
  QpType type_;
  QpState state_ = QpState::kReady;
  uint32_t qp_num_;
  Node* local_;
  Node* peer_;  // nullptr for UD
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  uint32_t peer_qp_num_ = 0;  // set by the fabric when connecting RC/UC pairs
  bool retired_ = false;      // set by Fabric::RetireQp
  int outstanding_ops_ = 0;
  uint64_t dropped_no_recv_ = 0;
  std::deque<PostedRecv> recv_queue_;
  // RC completion-order tickets (see AwaitTicket).
  uint64_t next_ticket_ = 0;
  uint64_t completed_ticket_ = 0;
  std::unique_ptr<sim::Notifier> order_waiters_;  // lazily built on first stall
};

}  // namespace rdma

#endif  // SRC_RDMA_QP_H_
