// Discrete-event simulation engine.
//
// The engine owns a virtual clock and a queue of pending events. Actors are
// coroutines (see task.h) that suspend on awaitables — Sleep(),
// Resource::Acquire(), Event::Wait() — and are resumed by the engine when
// their wake-up event fires. Events at equal timestamps run in FIFO order
// (a monotonically increasing sequence number breaks ties), which makes
// every simulation fully deterministic for a given seed.
//
// An event is a 24-byte {when, seq, target} record: the target is the frame
// address of the coroutine to resume, or a slot of the callback slab that
// ScheduleAt() fills. Events for a later instant wait in a 4-ary heap;
// events for the current instant (every wake-up by Resource::Release,
// Event/Notifier and Yield) go to a FIFO lane that bypasses the heap.
// Dispatch takes the lower (when, seq) of the lane front and the heap top,
// so the order is exactly the (when, seq) order of a single queue.
//
// The FIFO tie-break can be overridden with a SchedulePolicy (schedule.h):
// when a policy is installed, every instant with more than one ready event
// becomes a recorded decision point, which is what explore::Explorer uses to
// search the schedule space. With no policy installed the engine takes a
// fast path that is bit-for-bit identical to the historical FIFO order.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace sim {

class SchedulePolicy;

class Engine {
 public:
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current virtual time.
  Time now() const { return now_; }

  // Total events dispatched so far (useful for progress accounting in tests).
  uint64_t events_processed() const { return events_processed_; }

  // Attaches (or detaches, with nullptr) a trace sink. While attached, the
  // engine emits virtual-time spans for actor lifetimes and sleeps, and
  // components reached through this engine (NIC stations, RFP channels) emit
  // their own service/state spans. The sink must outlive the engine or be
  // detached first.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace_sink() const { return trace_; }

  // Installs (or removes, with nullptr) a same-timestamp tie-break policy.
  // The policy must outlive the engine or be detached first; it is consulted
  // only at instants with >= 2 ready events, so Yield() ordering and every
  // other same-instant race is policy-controlled. Install before Run(): the
  // decision-point sequence is only a stable replay artifact if the whole
  // run used one policy.
  void set_schedule_policy(SchedulePolicy* policy) { policy_ = policy; }
  SchedulePolicy* schedule_policy() const { return policy_; }

  // Schedules `fn` to run at absolute virtual time `when` (clamped to now()).
  // The clamp is a hard guarantee the schedule explorer relies on: an event
  // can never be queued in the past, so the ready set at each instant — and
  // therefore the decision-point sequence — is a function of prior decisions
  // only, making recorded traces replayable.
  void ScheduleAt(Time when, std::function<void()> fn);

  // Schedules `fn` to run `delay` nanoseconds from now.
  void ScheduleAfter(Time delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Resumes `handle` at absolute virtual time `when` (clamped to now()).
  void ResumeAt(Time when, std::coroutine_handle<> handle) {
    Push(when, Target{.frame = handle.address()}, 0);
  }

  // Awaitable: suspends the current coroutine for `delay` virtual nanoseconds.
  auto Sleep(Time delay) {
    struct Awaiter {
      Engine* engine;
      Time delay;
      bool await_ready() const noexcept { return delay <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        if (engine->trace_ != nullptr) {
          engine->trace_->Span("actor", "sleep",
                               reinterpret_cast<uint64_t>(h.address()), engine->now_,
                               engine->now_ + delay);
        }
        engine->ResumeAt(engine->now_ + delay, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay};
  }

  // Awaitable: yields to any other events pending at the current instant.
  auto Yield() {
    struct Awaiter {
      Engine* engine;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine->ResumeAt(engine->now_, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  // Launches a detached actor. The engine owns the coroutine frame and reaps
  // it when the actor finishes; exceptions escaping the actor are captured
  // and rethrown from Run()/RunFor()/RunUntil().
  void Spawn(Task<void> task);

  // Number of spawned actors that have not finished yet.
  int live_actors() const { return live_actors_; }

  // Runs until the event queue drains. Rethrows the first actor exception.
  void Run();

  // Runs until the event queue drains or virtual time would exceed `deadline`.
  // Returns true if the queue drained.
  bool RunUntil(Time deadline);

  // Convenience: RunUntil(now() + duration).
  bool RunFor(Time duration) { return RunUntil(now_ + duration); }

  // Internal: invoked by the Spawn wrapper when an actor finishes (with the
  // exception that escaped it, if any).
  void ActorDone(std::exception_ptr e);

 private:
  union Target {
    void* frame;  // coroutine to resume
    size_t slot;  // callback in callbacks_
  };

  // `seq` is the scheduling order shifted left by one; its low bit is
  // kCallbackTag when `target` names a callback slot rather than a frame.
  struct PendingEvent {
    Time when;
    uint64_t seq;
    Target target;
  };
  static_assert(sizeof(PendingEvent) == 24 && std::is_trivially_copyable_v<PendingEvent>);

  static constexpr uint64_t kCallbackTag = 1;

  static bool Before(const PendingEvent& a, const PendingEvent& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // FIFO ring of events for the current instant. Grows by doubling and never
  // shrinks, so a steady-state lane allocates nothing.
  class Lane {
   public:
    bool empty() const { return size_ == 0; }
    const PendingEvent& front() const { return ring_[head_]; }
    const PendingEvent& back() const { return ring_[(head_ + size_ - 1) & (ring_.size() - 1)]; }
    void push_back(const PendingEvent& ev) {
      if (size_ == ring_.size()) {
        Grow();
      }
      ring_[(head_ + size_) & (ring_.size() - 1)] = ev;
      ++size_;
    }
    PendingEvent pop_front() {
      const PendingEvent ev = ring_[head_];
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
      return ev;
    }

   private:
    void Grow();

    std::vector<PendingEvent> ring_;  // size is zero or a power of two
    size_t head_ = 0;
    size_t size_ = 0;
  };

  // Queues `target` at `when` (clamped to now()). The lane takes it if it is
  // for the current instant and the lane holds only current-instant events
  // (a RunUntil() deadline before now() can move the clock back under a
  // non-empty lane; such events go to the heap, which orders anything).
  void Push(Time when, Target target, uint64_t tag) {
    const uint64_t seq = (next_seq_++ << 1) | tag;
    if (when <= now_) {
      const PendingEvent ev{now_, seq, target};
      if (lane_.empty() || lane_.back().when == now_) {
        lane_.push_back(ev);
      } else {
        PushHeap(ev);
      }
      return;
    }
    PushHeap(PendingEvent{when, seq, target});
  }

  void PushHeap(const PendingEvent& ev);
  PendingEvent PopHeap();
  bool HasPending() const { return !lane_.empty() || !heap_.empty(); }
  // True if the next event comes from the lane (requires HasPending()).
  bool LaneIsNext() const {
    return !lane_.empty() && (heap_.empty() || Before(lane_.front(), heap_.front()));
  }
  Time NextWhen() const { return LaneIsNext() ? lane_.front().when : heap_.front().when; }

  void DispatchOne();
  void DispatchOneWithPolicy();
  void Fire(const PendingEvent& ev);

  Time now_ = 0;
  TraceSink* trace_ = nullptr;
  SchedulePolicy* policy_ = nullptr;
  uint64_t next_actor_id_ = 1;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  int live_actors_ = 0;
  std::exception_ptr actor_failure_;
  std::vector<PendingEvent> heap_;  // 4-ary min-heap on (when, seq)
  Lane lane_;
  std::vector<std::function<void()>> callbacks_;  // ScheduleAt slab
  std::vector<size_t> free_callbacks_;            // recycled slab slots
  std::vector<PendingEvent> ready_scratch_;       // policy path: same-instant ready set
};

}  // namespace sim

#endif  // SRC_SIM_ENGINE_H_
