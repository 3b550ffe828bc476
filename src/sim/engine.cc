#include "src/sim/engine.h"

#include <string>
#include <utility>

#include "src/sim/schedule.h"

namespace sim {

namespace {

// Fire-and-forget wrapper coroutine used by Engine::Spawn. It starts eagerly,
// runs the wrapped task to completion, and self-destructs (final_suspend is
// suspend_never), so the engine never has to track frames explicitly. Its
// frame is recycled through FramePool like every Task frame.
struct Detached {
  struct promise_type {
    static void* operator new(std::size_t bytes) { return internal::FramePool::Allocate(bytes); }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      internal::FramePool::Deallocate(frame, bytes);
    }
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    // The wrapper body catches everything; reaching here is a logic error.
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

Detached RunDetached(Engine* engine, Task<void> task, uint64_t actor_id, Time spawned_at) {
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

}  // namespace

void Engine::ScheduleAt(Time when, std::function<void()> fn) {
  size_t slot;
  if (free_callbacks_.empty()) {
    slot = callbacks_.size();
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  Push(when, Target{.slot = slot}, kCallbackTag);
}

void Engine::Lane::Grow() {
  std::vector<PendingEvent> grown(ring_.empty() ? 64 : 2 * ring_.size());
  for (size_t i = 0; i < size_; ++i) {
    grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_.swap(grown);
  head_ = 0;
}

// A 4-ary min-heap: half the depth of a binary heap, and the four children
// of a node share a cache line or two.
void Engine::PushHeap(const PendingEvent& ev) {
  size_t hole = heap_.size();
  heap_.push_back(ev);
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (!Before(ev, heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = ev;
}

Engine::PendingEvent Engine::PopHeap() {
  const PendingEvent top = heap_.front();
  const PendingEvent last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return top;
  }
  size_t hole = 0;
  for (;;) {
    const size_t first = 4 * hole + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t end = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], last)) {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  return top;
}

void Engine::Fire(const PendingEvent& ev) {
  if ((ev.seq & kCallbackTag) == 0) {
    std::coroutine_handle<>::from_address(ev.target.frame).resume();
    return;
  }
  // The slot is freed before the call, so a callback that schedules another
  // one may be handed its own slot back.
  const size_t slot = ev.target.slot;
  std::function<void()> fn = std::move(callbacks_[slot]);
  callbacks_[slot] = nullptr;
  free_callbacks_.push_back(slot);
  fn();
}

void Engine::Spawn(Task<void> task) {
  ++live_actors_;
  RunDetached(this, std::move(task), next_actor_id_++, now_);
}

void Engine::ActorDone(std::exception_ptr e) {
  --live_actors_;
  if (e && !actor_failure_) {
    actor_failure_ = e;
  }
}

void Engine::DispatchOne() {
  if (policy_ != nullptr) {
    DispatchOneWithPolicy();
    return;
  }
  const PendingEvent ev = LaneIsNext() ? lane_.pop_front() : PopHeap();
  now_ = ev.when;
  ++events_processed_;
  Fire(ev);
}

void Engine::DispatchOneWithPolicy() {
  // Drain the full ready set for the next instant. The lane's events for it
  // join the heap first, so the heap yields the whole set in ascending seq
  // and the ready set the policy sees is indexed in FIFO order: choice 0
  // always means "what FIFO would do".
  const Time instant = NextWhen();
  while (!lane_.empty() && lane_.front().when == instant) {
    PushHeap(lane_.pop_front());
  }
  ready_scratch_.clear();
  while (!heap_.empty() && heap_.front().when == instant) {
    ready_scratch_.push_back(PopHeap());
  }
  size_t pick = 0;
  if (ready_scratch_.size() > 1) {
    pick = policy_->ChooseAndRecord(ready_scratch_.size());
  }
  const PendingEvent chosen = ready_scratch_[pick];
  // Unchosen events go back to the heap with their original seq: relative
  // FIFO order among them is preserved, so the next decision point sees a
  // ready set that differs from this one only by the removal of `chosen`
  // (plus whatever `chosen` itself schedules at this instant).
  for (size_t i = 0; i < ready_scratch_.size(); ++i) {
    if (i != pick) {
      PushHeap(ready_scratch_[i]);
    }
  }
  ready_scratch_.clear();
  now_ = chosen.when;
  ++events_processed_;
  Fire(chosen);
}

void Engine::Run() {
  while (HasPending() && !actor_failure_) {
    DispatchOne();
  }
  if (actor_failure_) {
    std::exception_ptr e = std::exchange(actor_failure_, nullptr);
    std::rethrow_exception(e);
  }
}

bool Engine::RunUntil(Time deadline) {
  while (HasPending() && !actor_failure_) {
    if (NextWhen() > deadline) {
      now_ = deadline;
      return false;
    }
    DispatchOne();
  }
  if (actor_failure_) {
    std::exception_ptr e = std::exchange(actor_failure_, nullptr);
    std::rethrow_exception(e);
  }
  now_ = deadline;
  return true;
}

}  // namespace sim
