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
// address of the coroutine to resume, a Resumable to call, or a slot of the
// callback slab that ScheduleAt() fills. Events for a later instant wait in a 4-ary heap;
// events for the current instant (every wake-up by Resource::Release,
// Event/Notifier and Yield) go to a FIFO lane that bypasses the heap.
// Dispatch takes the lower (when, seq) of the lane front and the heap top,
// so the order is exactly the (when, seq) order of a single queue.
//
// A poll loop that found nothing can park instead of sleeping (poller.h):
// the engine queues no event for the polls it skips and, when a wake source
// fires, resumes the loop at its first poll instant at or after the wake
// with the exact seq that poll would have drawn. The skipped polls still
// count in events_processed(), so a run with parked loops is bit-for-bit
// the run that slept them (DESIGN.md §5, "Parked pollers").
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
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/ring.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace sim {

class BusyMeter;
class Engine;
class SchedulePolicy;

// An event target that is not a coroutine frame: the engine calls Resume()
// when the event fires. An awaiter that must act at an instant on behalf of
// the coroutine suspended in it (a contended Resource::Use starting the
// holder's service at its grant) derives from it instead of starting a
// frame of its own. It must outlive its pending events.
class Resumable {
 public:
  virtual void Resume() = 0;

 protected:
  ~Resumable() = default;
};

namespace internal {

// Fire-and-forget wrapper coroutine used by Engine::Spawn. It starts eagerly,
// runs the wrapped task to completion, and self-destructs (final_suspend is
// suspend_never), so the engine never has to track frames explicitly. Its
// frame is recycled through FramePool like every Task frame.
struct Detached {
  struct promise_type {
    static void* operator new(std::size_t bytes) { return FramePool::Allocate(bytes); }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      FramePool::Deallocate(frame, bytes);
    }
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    // The wrapper body catches everything; reaching here is a logic error.
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

template <typename T>
Detached RunDetached(Engine* engine, Task<T> task, uint64_t actor_id, Time spawned_at);

}  // namespace internal

class Engine {
 public:
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current virtual time.
  Time now() const { return now_; }

  // Total events dispatched so far (useful for progress accounting in tests),
  // counting every poll a parked loop skipped as the event it would have
  // been.
  uint64_t events_processed() const;

  // Events the engine really dispatched: events_processed() minus the
  // skipped polls of parked loops.
  uint64_t dispatches() const { return dispatches_; }

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

  // Calls `target->Resume()` at absolute virtual time `when` (clamped to
  // now()): one event, ordered like a frame's.
  void ResumeAt(Time when, Resumable* target) {
    Push(when, Target{.object = target}, kObjectTag);
  }

  // Awaitable: suspends the current coroutine for `delay` virtual nanoseconds.
  struct SleepAwaiter {
    Engine* engine;
    Time delay;
    bool await_ready() const noexcept { return delay <= 0; }
    void await_suspend(std::coroutine_handle<> h) { engine->SleepFrame(h, delay); }
    void await_resume() const noexcept {}
  };
  SleepAwaiter Sleep(Time delay) { return SleepAwaiter{this, delay}; }

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
  // it when the actor finishes, dropping any value it returns; exceptions
  // escaping the actor are captured and rethrown from Run()/RunFor()/
  // RunUntil().
  template <typename T>
  void Spawn(Task<T> task) {
    ++live_actors_;
    internal::RunDetached(this, std::move(task), next_actor_id_++, now_);
  }

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
  friend class BusyMeter;
  friend class Poller;

  // A poll loop's park state (poller.h). The loop polls at `next`,
  // `next + period`, ...; `next_seq` is the seq the poll at `next` was
  // queued with, so every later poll's seq follows from the dispatch log.
  struct ParkRecord {
    // kParked: polls skipped; kWaking: a wake event is queued for the poll
    // at wake_at; kScheduled: that poll is queued under its exact seq or
    // running; until the loop resumes, its grid stays held.
    enum class State : uint8_t { kFree, kIdle, kParked, kWaking, kScheduled };
    std::coroutine_handle<> frame;
    Time period = 0;
    Time phase = 0;  // next % period
    Time next = 0;
    uint64_t next_seq = 0;
    uint64_t skipped = 0;  // polls skipped before `next` in this park
    Time wake_at = -1;  // kParked/kWaking: the live wake event's instant, if
                        // any; kScheduled: the queued poll's instant
    BusyMeter* meter = nullptr;
    Time charge = 0;       // meter charge per skipped poll
    uint32_t episode = 0;  // parks so far; a wake event names its park
    uint32_t rank = 0;     // order among held records on one grid
    uint32_t parked_at = 0;  // index in parked_ while parked()
    uint32_t held_at = 0;    // index in held_ unless kIdle
    State state = State::kFree;

    bool parked() const { return state == State::kParked || state == State::kWaking; }
  };

  // One logged dispatch: its key and next_seq_ once it finished.
  struct LogEntry {
    Time when;
    uint64_t seq;
    uint64_t counter_after;
  };
  // Seqs drawn between runs, after every poll at or before `at`.
  struct Boundary {
    Time at;
    uint64_t counter;
  };

  // How many held records poll on each (period, phase) grid, keyed
  // period << kSeqShift | phase: an open-addressing map (key 0 = empty
  // slot), so a park or a wake event tells in O(1) whether other loops poll
  // on a grid, however many are parked.
  class GridCounts {
   public:
    static uint64_t Key(Time period, Time phase) {
      return (static_cast<uint64_t>(period) << kSeqShift) | static_cast<uint64_t>(phase);
    }
    int count(uint64_t key) const;
    void add(uint64_t key);
    void remove(uint64_t key);

   private:
    struct Slot {
      uint64_t key = 0;
      int count = 0;
    };
    size_t Home(uint64_t key) const { return (key * 0x9e3779b97f4a7c15ULL) >> shift_; }
    void Insert(Slot slot);
    std::vector<Slot> slots_;  // size is zero or a power of two
    size_t size_ = 0;
    int shift_ = 64;
  };

  union Target {
    void* frame;  // coroutine to resume
    Resumable* object;
    size_t slot;  // callback in callbacks_
  };

  // `seq` is the scheduling order shifted left by kSeqShift; its low bits
  // are kCallbackTag when `target` names a callback slot and kObjectTag when
  // it names a Resumable, rather than a frame (whose low bit is 0). The bits
  // between order parked polls (ParkSeq), leaving 40 bits of
  // scheduling order; seq 0 is a wake event for a parked poll, resolved on
  // arrival.
  struct PendingEvent {
    Time when;
    uint64_t seq;
    Target target;
  };
  static_assert(sizeof(PendingEvent) == 24 && std::is_trivially_copyable_v<PendingEvent>);

  static constexpr uint64_t kCallbackTag = 1;
  static constexpr uint64_t kObjectTag = 3;  // kCallbackTag | 2: a Resumable
  static constexpr int kSeqShift = 24;
  static constexpr int kRankBits = 10;
  static constexpr uint32_t kRankLimit = 1U << kRankBits;
  // Parking needs a period below this; longer waits just sleep.
  static constexpr Time kMaxParkPeriod = Time{1} << (kSeqShift - 1 - kRankBits);
  static constexpr uint64_t kWakeSeq = 0;
  static constexpr uint64_t kOutsideDispatch = ~uint64_t{0};

  // The seq of a poll queued by a draw made while next_seq_ was `window`
  // (no counter value consumed): after every seq drawn before it, before
  // every seq drawn after it. Two such draws in one window that land on one
  // instant came from polls of different periods, and the longer period
  // drew first; or from loops polling on one grid, whose order never
  // changes while they stay parked and is their rank.
  static uint64_t ParkSeq(uint64_t window, Time period, uint32_t rank) {
    const auto sub = (static_cast<uint64_t>(kMaxParkPeriod - period) << kRankBits) | rank;
    return ((window - 1) << kSeqShift) | (sub << 1);
  }

  static bool Before(const PendingEvent& a, const PendingEvent& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // Queues `target` at `when` (clamped to now()). The lane takes it if it is
  // for the current instant and the lane holds only current-instant events
  // (a RunUntil() deadline before now() can move the clock back under a
  // non-empty lane; such events go to the heap, which orders anything).
  void Push(Time when, Target target, uint64_t tag) {
    const uint64_t seq = (next_seq_++ << kSeqShift) | tag;
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
  // Drops wake events that a park no longer waits for, so they neither move
  // the clock nor keep a run from draining.
  bool HasPending() {
    while (!heap_.empty() && heap_.front().seq == kWakeSeq && StaleWake(heap_.front())) {
      PopHeap();
    }
    return !lane_.empty() || !heap_.empty();
  }
  bool StaleWake(const PendingEvent& ev) const {
    const ParkRecord& r = parks_[static_cast<uint32_t>(ev.target.slot)];
    return !r.parked() || r.episode != ev.target.slot >> 32 || r.wake_at != ev.when;
  }
  // True if the next event comes from the lane (requires HasPending()).
  bool LaneIsNext() const {
    return !lane_.empty() && (heap_.empty() || Before(lane_.front(), heap_.front()));
  }
  Time NextWhen() const { return LaneIsNext() ? lane_.front().when : heap_.front().when; }

  void DispatchOne();
  void DispatchOneLogged();
  void DispatchOneWithPolicy();
  void Fire(const PendingEvent& ev);

  void SleepFrame(std::coroutine_handle<> h, Time delay) {
    if (trace_ != nullptr) {
      trace_->Span("actor", "sleep", reinterpret_cast<uint64_t>(h.address()), now_, now_ + delay);
    }
    ResumeAt(now_ + delay, h);
  }

  // Parking (poller.h).
  uint32_t NewPark(BusyMeter* meter, Time charge);
  void FreePark(uint32_t id);
  void Park(uint32_t id, std::coroutine_handle<> h, Time period, Time deadline);
  void Unparked(uint32_t id);
  void Wake(uint32_t id);
  bool Join(uint32_t id);
  bool DrewBefore(const ParkRecord& r) const;
  bool Respace(std::vector<uint32_t>& members);
  void Release(uint32_t id);
  bool OthersPollAt(const ParkRecord& self, Time at) const;
  void PushWake(uint32_t id, Time at);
  void Arrive(uint32_t id);
  void Resume(uint32_t id, Time at, uint64_t seq);
  void Settle(ParkRecord& r, Time at);
  void Unpark(ParkRecord& r);
  void Unlist(std::vector<uint32_t>& list, uint32_t at, uint32_t ParkRecord::*index);
  uint64_t SeqAt(const ParkRecord& r, Time q) const;
  size_t LogLowerBound(Time when, uint64_t seq) const;
  uint64_t WindowBefore(Time when, uint64_t seq) const;
  bool LoggedAt(Time when) const;
  uint64_t SkippedSoFar(const ParkRecord& r) const;
  Time PendingCharge(const BusyMeter* meter) const;
  void NoteBoundary();
  void TrimLog();

  Time now_ = 0;
  TraceSink* trace_ = nullptr;
  SchedulePolicy* policy_ = nullptr;
  uint64_t next_actor_id_ = 1;
  uint64_t next_seq_ = 1;  // ParkSeq needs every window >= 1
  uint64_t dispatches_ = 0;
  uint64_t skipped_polls_ = 0;  // settled skipped polls of parked loops
  uint64_t current_seq_ = kOutsideDispatch;  // seq of the event being fired
  int live_actors_ = 0;
  std::exception_ptr actor_failure_;
  std::vector<PendingEvent> heap_;  // 4-ary min-heap on (when, seq)
  Ring<PendingEvent> lane_;  // events for the current instant
  std::vector<std::function<void()>> callbacks_;  // ScheduleAt slab
  std::vector<size_t> free_callbacks_;            // recycled slab slots
  std::vector<PendingEvent> ready_scratch_;       // policy path: same-instant ready set

  std::vector<ParkRecord> parks_;
  std::vector<uint32_t> free_parks_;
  std::vector<uint32_t> parked_;  // parked() records
  std::vector<uint32_t> held_;    // records whose grid is taken
  GridCounts grids_;              // grids of held_
  std::vector<uint32_t> members_scratch_;  // Join: held records on one grid
  std::vector<std::pair<Time, int>> held_periods_;  // period, held records on it
  // Dispatch log, kept only while a record is parked: the dispatches that
  // drew a seq, entries [log_head_, end) in (when, seq) order, whatever came
  // before folded into log_base_. A dispatch is logged once it finishes.
  static constexpr size_t kMinTrim = 2048;
  std::vector<LogEntry> log_;
  size_t log_head_ = 0;
  uint64_t log_base_ = 0;
  size_t trim_at_ = 0;
  std::vector<Boundary> boundaries_;
};

namespace internal {

template <typename T>
Detached RunDetached(Engine* engine, Task<T> task, uint64_t actor_id, Time spawned_at) {
  std::exception_ptr failure;
  try {
    co_await std::move(task);
  } catch (...) {
    failure = std::current_exception();
  }
  if (TraceSink* trace = engine->trace_sink()) {
    trace->Span("actor", "actor-" + std::to_string(actor_id), actor_id, spawned_at,
                engine->now());
  }
  engine->ActorDone(failure);
}

}  // namespace internal

}  // namespace sim

#endif  // SRC_SIM_ENGINE_H_
