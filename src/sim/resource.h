// FIFO-queued resources for the simulator.
//
// A Resource models a station with `capacity` identical servers (a NIC issue
// pipeline, a DMA engine, a CPU core pool, a lock). Actors acquire a permit,
// hold it for however long they choose (usually via Engine::Sleep), and
// release it; contenders queue in strict FIFO order, which keeps simulations
// deterministic. `Use(service)` wraps the common acquire-hold-release
// pattern; an uncontended use runs on the awaiting coroutine's own frame, so
// a station that is usually free (a worker's core) costs one event and no
// frame per charge. Utilization and queueing statistics are tracked for
// reporting.

#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/task.h"
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

  // Acquires a permit, holds it for `service`, then releases it. A free
  // permit is granted at the co_await, held by sleeping the awaiting
  // coroutine itself and released as it resumes: UseContended()'s grant,
  // event and release without its frame. Otherwise the awaiter starts
  // UseContended() and owns that frame, so destroying a coroutine suspended
  // here frees it too.
  auto Use(Time service) {
    struct [[nodiscard]] Awaiter {
      Resource* resource;
      Time service;
      bool held = false;
      Task<void> contended;

      bool await_ready() {
        if (resource->available_ == 0) {
          return false;
        }
        resource->Grant();
        if (service <= 0) {
          resource->Release();
          return true;
        }
        held = true;
        return false;
      }

      std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
        if (held) {
          resource->engine_.Sleep(service).await_suspend(h);
          return std::noop_coroutine();
        }
        contended = resource->UseContended(service);
        return std::move(contended).operator co_await().await_suspend(h);
      }

      void await_resume() {
        if (held) {
          resource->Release();
        } else if (contended.valid()) {
          std::move(contended).operator co_await().await_resume();
        }
      }
    };
    return Awaiter{this, service, false, {}};
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    Time enqueued_at;
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

  // Use() when no permit is free: queue, hold, release.
  Task<void> UseContended(Time service);

  Engine& engine_;
  const int capacity_;
  int available_;
  uint64_t total_acquisitions_ = 0;
  Time total_wait_ = 0;
  Time busy_integral_ = 0;
  Time last_change_ = 0;
  std::deque<Waiter> waiters_;
  mutable std::vector<Watch> watches_;
};

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
