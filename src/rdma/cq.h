// Completion queues.
//
// Completions are appended by the fabric when operations finish and drained
// by application actors, either non-blockingly (Poll) or by suspending until
// one arrives (Wait) — the coroutine analogue of busy-polling ibv_poll_cq.

#ifndef SRC_RDMA_CQ_H_
#define SRC_RDMA_CQ_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/check/checker.h"
#include "src/rdma/types.h"
#include "src/sim/engine.h"
#include "src/sim/poller.h"
#include "src/sim/ring.h"
#include "src/sim/signal.h"
#include "src/sim/task.h"

namespace rdma {

class CompletionQueue {
 public:
  explicit CompletionQueue(sim::Engine& engine) : engine_(engine), arrival_(engine) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  // Attached by the fabric when invariant checking is on (see src/check/).
  void set_checker(check::FabricChecker* checker) { checker_ = checker; }

  // Internal: appends a completion and wakes one waiter.
  void Push(const WorkCompletion& wc) {
    queue_.push_back(wc);
    ++total_;
    if (checker_ != nullptr) {
      checker_->OnCqPush(this, wc, queue_.size());
    }
    arrival_.NotifyOne();
    for (sim::Poller* poller : pollers_) {
      poller->Wake();
    }
  }

  // Wakes `poller` on every Push until Unwatch(poller): a parked loop
  // polling this queue (sim/poller.h).
  void Watch(sim::Poller* poller) { pollers_.push_back(poller); }
  void Unwatch(sim::Poller* poller) { std::erase(pollers_, poller); }

  // Non-blocking poll; std::nullopt when the queue is empty.
  std::optional<WorkCompletion> Poll() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    return queue_.pop_front();
  }

  // Drains up to out.size() completions; returns how many were written.
  size_t PollBatch(std::span<WorkCompletion> out) {
    size_t n = 0;
    while (n < out.size() && !queue_.empty()) {
      out[n++] = queue_.pop_front();
    }
    return n;
  }

  // Suspends until a completion is available, then returns it.
  sim::Task<WorkCompletion> Wait() {
    while (true) {
      if (auto wc = Poll()) {
        co_return *wc;
      }
      co_await arrival_.Wait();
    }
  }

  // Suspends until the next Push or WakeAll; by then another waiter may have
  // drained the queue. For consumers that demultiplex one CQ among several
  // waiters and must also wake on completions handed over out of band.
  auto WaitArrival() { return arrival_.Wait(); }
  void WakeAll() { arrival_.NotifyAll(); }

  size_t depth() const { return queue_.size(); }
  uint64_t total_completions() const { return total_; }

 private:
  sim::Engine& engine_;
  sim::Notifier arrival_;
  check::FabricChecker* checker_ = nullptr;
  sim::Ring<WorkCompletion> queue_;
  uint64_t total_ = 0;
  std::vector<sim::Poller*> pollers_;
};

}  // namespace rdma

#endif  // SRC_RDMA_CQ_H_
