// FIFO-queued resources for the simulator.
//
// A Resource models a station with `capacity` identical servers (a NIC issue
// pipeline, a DMA engine, a CPU core pool, a lock). Actors acquire a permit,
// hold it for however long they choose (usually via Engine::Sleep), and
// release it; contenders queue in strict FIFO order, which keeps simulations
// deterministic. `Use(service)` wraps the common acquire-hold-release
// pattern on the awaiting coroutine's own frame, contended or not, so a
// charge to a station costs its events and no frame. Utilization and
// queueing statistics are tracked for reporting.

#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/ring.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace sim {

class Resource {
 public:
  Resource(Engine& engine, int capacity) : engine_(engine), capacity_(capacity), available_(capacity) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  int capacity() const { return capacity_; }
  int available() const { return available_; }
  int queue_length() const { return static_cast<int>(waiters_.size()); }
  uint64_t total_acquisitions() const { return total_acquisitions_; }
  Time total_wait() const { return total_wait_; }

  // Integral of (permits in use) over time; divide by capacity * elapsed to
  // get average utilization.
  Time busy_integral() const {
    return busy_integral_ + static_cast<Time>(in_use()) * (engine_.now() - last_change_);
  }

  double Utilization(Time window_start, Time window_end) const {
    if (window_end <= window_start || capacity_ == 0) {
      return 0.0;
    }
    return static_cast<double>(busy_integral() - BusyIntegralAt(window_start)) /
           static_cast<double>(capacity_ * (window_end - window_start));
  }

  // Arms an exact utilization-window boundary: the busy integral is
  // snapshotted as the simulation crosses `at`, so a later
  // Utilization(at, end) reports the busy fraction of [at, end] alone
  // instead of folding in busy time accumulated before the window.
  // Snapshots resolve lazily on the next permit transition (O(1) amortized).
  // An `at` already in the past clamps to the last transition — the nearest
  // reconstructible instant.
  void WatchFrom(Time at) {
    watches_.push_back(Watch{at, 0, false});
    ResolveWatches();
  }

  // Awaitable that suspends until a permit is granted. Permits are granted
  // in request order.
  auto Acquire() {
    struct Awaiter {
      Resource* resource;
      Time enqueued_at;

      bool await_ready() {
        if (resource->available_ > 0) {
          resource->Grant();
          return true;
        }
        return false;
      }

      void await_suspend(std::coroutine_handle<> h) {
        enqueued_at = resource->engine_.now();
        resource->waiters_.push_back(Waiter{h, enqueued_at});
      }

      void await_resume() const noexcept {}
    };
    return Awaiter{this, 0};
  }

  // Returns a permit. If actors are queued, the permit passes directly to the
  // head of the queue (resumed at the current instant).
  void Release();

  class UseAwaiter;

  // Acquires a permit, holds it for `service`, then releases it; the
  // co_await yields the instant the permit was granted. When `wait_ns` is
  // set, the time from the co_await to the grant is recorded into it at the
  // grant. The permit is held by sleeping the awaiting coroutine itself and
  // released as it resumes, so a use starts no frame. A free permit is
  // granted at the co_await. Otherwise the awaiter queues like Acquire();
  // the grant event fires the awaiter (a Resumable), which starts the
  // coroutine's service sleep: the grant, events and release of
  // Acquire/Sleep/Release, with the same seqs.
  UseAwaiter Use(Time service, Histogram* wait_ns = nullptr);

 private:
  // An Acquire() waiter, or a queued Use() (`use` set), whose coroutine
  // resumes only once its service ends.
  struct Waiter {
    std::coroutine_handle<> handle;
    Time enqueued_at;
    UseAwaiter* use = nullptr;
  };

  struct Watch {
    Time at;
    Time busy;
    bool resolved;
  };

  // A permit handed to a queued waiter (whose resume event is pending) counts
  // as in use: it is already reserved for that waiter.
  int in_use() const { return capacity_ - available_; }

  void AccumulateBusy() {
    ResolveWatches();  // before last_change_ moves past any armed boundary
    busy_integral_ += static_cast<Time>(in_use()) * (engine_.now() - last_change_);
    last_change_ = engine_.now();
  }

  // The permit count is constant on [last_change_, now], so any armed
  // boundary inside that span has an exactly reconstructible busy integral.
  void ResolveWatches() const {
    for (Watch& w : watches_) {
      if (!w.resolved && w.at <= engine_.now()) {
        const Time at = w.at < last_change_ ? last_change_ : w.at;
        w.busy = busy_integral_ + static_cast<Time>(in_use()) * (at - last_change_);
        w.resolved = true;
      }
    }
  }

  Time BusyIntegralAt(Time t) const {
    if (t <= 0) {
      return 0;
    }
    ResolveWatches();
    for (const Watch& w : watches_) {
      if (w.resolved && w.at == t) {
        return w.busy;
      }
    }
    if (t >= last_change_ && t <= engine_.now()) {
      return busy_integral_ + static_cast<Time>(in_use()) * (t - last_change_);
    }
    return 0;  // unwatched past instant: whole-history fallback
  }

  void Grant() {
    AccumulateBusy();
    --available_;
    ++total_acquisitions_;
  }

  Engine& engine_;
  const int capacity_;
  int available_;
  uint64_t total_acquisitions_ = 0;
  Time total_wait_ = 0;
  Time busy_integral_ = 0;
  Time last_change_ = 0;
  Ring<Waiter> waiters_;
  mutable std::vector<Watch> watches_;
};

class [[nodiscard]] Resource::UseAwaiter final : public Resumable {
 public:
  UseAwaiter(Resource* resource, Time service, Histogram* wait_ns)
      : resource_(resource), service_(service), wait_ns_(wait_ns),
        requested_(resource->engine_.now()) {}

  bool await_ready() {
    if (resource_->available_ == 0) {
      return false;
    }
    resource_->Grant();
    Granted();
    if (service_ <= 0) {
      resource_->Release();
      return true;
    }
    held_ = true;
    return false;
  }

  void await_suspend(std::coroutine_handle<> h) {
    if (held_) {
      resource_->engine_.Sleep(service_).await_suspend(h);
      return;
    }
    held_ = true;  // from the grant on
    holder_ = h;
    resource_->waiters_.push_back(Waiter{h, requested_, this});
  }

  Time await_resume() {
    if (held_) {
      resource_->Release();
    }
    return granted_;
  }

  // The grant event of a queued use: start the service, or with none,
  // release and go on at once.
  void Resume() override {
    Granted();
    if (service_ <= 0) {
      holder_.resume();
    } else {
      resource_->engine_.Sleep(service_).await_suspend(holder_);
    }
  }

 private:
  void Granted() {
    granted_ = resource_->engine_.now();
    if (wait_ns_ != nullptr) {
      wait_ns_->Record(granted_ - requested_);
    }
  }

  Resource* resource_;
  Time service_;
  Histogram* wait_ns_;
  Time requested_;
  Time granted_ = 0;
  bool held_ = false;
  std::coroutine_handle<> holder_;
};

inline Resource::UseAwaiter Resource::Use(Time service, Histogram* wait_ns) {
  return UseAwaiter(this, service, wait_ns);
}

// Mutual exclusion: a capacity-1 resource with lock/unlock vocabulary.
class Mutex {
 public:
  explicit Mutex(Engine& engine) : resource_(engine, 1) {}

  auto Lock() { return resource_.Acquire(); }
  void Unlock() { resource_.Release(); }
  uint64_t total_acquisitions() const { return resource_.total_acquisitions(); }

 private:
  Resource resource_;
};

}  // namespace sim

#endif  // SRC_SIM_RESOURCE_H_
