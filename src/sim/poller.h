// Parked poll loops.
//
// A poll loop checks some state, and when it finds nothing it sleeps one
// period and checks again. When the state can change only through known
// wake sources (a CQ push, a write into a landing block, a stop flag) and
// the empty poll has no other effect, the loop can park instead:
//
//   sim::Poller poller(engine);                 // one per loop
//   while (true) {
//     if (auto wc = cq.Poll()) { ...; continue; }
//     co_await poller.Park(period);             // was: engine.Sleep(period)
//   }
//   // wake source, wherever the polled state changes:  poller.Wake();
//
// Park() resumes the loop at its first poll instant at or after the first
// Wake() (or, with a deadline, at the first poll instant >= deadline), with
// the seq that poll would have had, and queues no event for the polls in
// between. The run is the sleep chain's run: same order, same ties, same
// events_processed(). A skipped poll's only effects may be the ones the
// engine settles: the event count and, if a BusyMeter is given, `charge` of
// busy time per poll.
//
// Where the engine cannot skip polls exactly (a schedule policy or trace
// sink is installed, the period is kMaxParkPeriod or more, another loop
// already polls on the same period and phase) Park() is Sleep(period).

#ifndef SRC_SIM_POLLER_H_
#define SRC_SIM_POLLER_H_

#include <coroutine>
#include <cstdint>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace sim {

class Poller {
 public:
  explicit Poller(Engine& engine, BusyMeter* meter = nullptr, Time charge = 0)
      : engine_(engine), id_(engine.NewPark(meter, charge)) {}
  ~Poller() { engine_.FreePark(id_); }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // Awaitable: equivalent to `co_await engine.Sleep(period)` repeated for as
  // long as the polls in between would find nothing. `deadline` (0 = none)
  // is an absolute time the loop checks at each poll.
  auto Park(Time period, Time deadline = 0) {
    struct Awaiter {
      Poller* poller;
      Time period;
      Time deadline;
      bool await_ready() const noexcept { return period <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        poller->engine_.Park(poller->id_, h, period, deadline);
      }
      void await_resume() const noexcept { poller->engine_.Unparked(poller->id_); }
    };
    return Awaiter{this, period, deadline};
  }

  // The polled state may have changed: a parked loop resumes at its next
  // poll. A no-op unless parked.
  void Wake() { engine_.Wake(id_); }

 private:
  Engine& engine_;
  uint32_t id_;
};

}  // namespace sim

#endif  // SRC_SIM_POLLER_H_
