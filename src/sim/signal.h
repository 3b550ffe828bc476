// Event and notification primitives for simulator actors.

#ifndef SRC_SIM_SIGNAL_H_
#define SRC_SIM_SIGNAL_H_

#include <coroutine>

#include "src/sim/engine.h"
#include "src/sim/ring.h"

namespace sim {

// Level-triggered broadcast event. Wait() completes immediately while the
// event is set; Set() releases every current waiter. Reset() re-arms it.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(engine) {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }

  void Set() {
    set_ = true;
    WakeAll();
  }

  void Reset() { set_ = false; }

  auto Wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) { event->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  void WakeAll() {
    while (!waiters_.empty()) {
      engine_.ResumeAt(engine_.now(), waiters_.pop_front());
    }
  }

  Engine& engine_;
  bool set_ = false;
  Ring<std::coroutine_handle<>> waiters_;
};

// Edge-triggered condition: Wait() always suspends until the next
// NotifyOne()/NotifyAll(). Waiters are responsible for re-checking their
// predicate in a loop, exactly like a condition variable.
class Notifier {
 public:
  explicit Notifier(Engine& engine) : engine_(engine) {}

  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  int waiters() const { return static_cast<int>(waiters_.size()); }

  auto Wait() {
    struct Awaiter {
      Notifier* notifier;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { notifier->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void NotifyOne() {
    if (!waiters_.empty()) {
      engine_.ResumeAt(engine_.now(), waiters_.pop_front());
    }
  }

  void NotifyAll() {
    while (!waiters_.empty()) {
      NotifyOne();
    }
  }

 private:
  Engine& engine_;
  Ring<std::coroutine_handle<>> waiters_;
};

}  // namespace sim

#endif  // SRC_SIM_SIGNAL_H_
