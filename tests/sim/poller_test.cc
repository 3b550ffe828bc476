// Parked pollers (src/sim/poller.h). A parked loop must be indistinguishable
// from the same loop sleeping one period at a time: same firing order, same
// same-instant ties, same events_processed() and BusyMeter readings at every
// point. Each case runs a randomized world twice, once with Poller::Park and
// once with Engine::Sleep, and compares the traces.

#include "src/sim/poller.h"

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace sim {
namespace {

constexpr Time kPollCharge = 3;

// (when, actor, step, events_processed(), meter.busy()) at every real step.
using Trace = std::vector<std::tuple<Time, int, int, uint64_t, Time>>;

struct Shape {
  int pollers = 4;
  int wakers = 3;
  int rounds = 12;      // items each poller consumes
  Time max_gap = 12;    // waker sleep between wakes
  bool deadlines = true;
  bool lockstep = false;  // every poller starts on one grid
};

struct World {
  explicit World(bool park_mode) : park(park_mode) {}

  void Record(int actor, int step) {
    trace.emplace_back(engine.now(), actor, step, engine.events_processed(), meter.busy());
  }

  bool park;
  Engine engine;
  BusyMeter meter;
  std::vector<std::unique_ptr<Poller>> pollers;
  std::vector<int> pending;  // items waiting for each poller
  Trace trace;
};

Task<void> PollLoop(World& w, int id, Time period, Time start, Time timeout, int rounds,
                    uint64_t seed) {
  Rng rng(seed);
  co_await w.engine.Sleep(start);
  Time deadline = timeout > 0 ? w.engine.now() + timeout : 0;
  int step = 0;
  while (step < rounds) {
    if (w.pending[static_cast<size_t>(id)] > 0) {
      --w.pending[static_cast<size_t>(id)];
      w.Record(id, step++);
      co_await w.engine.Sleep(static_cast<Time>(rng.NextBounded(3)));
      deadline = timeout > 0 ? w.engine.now() + timeout : 0;
      continue;
    }
    if (deadline != 0 && w.engine.now() >= deadline) {
      w.Record(id, 1000 + step++);
      deadline = w.engine.now() + timeout;
      continue;
    }
    w.meter.AddBusy(kPollCharge);
    if (w.park) {
      co_await w.pollers[static_cast<size_t>(id)]->Park(period, deadline);
    } else {
      co_await w.engine.Sleep(period);
    }
  }
}

Task<void> WakeLoop(World& w, int id, int wakes, Time max_gap, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < wakes; ++i) {
    const uint64_t pause = rng.NextBounded(4);
    if (pause == 0) {
      co_await w.engine.Yield();
    } else {
      co_await w.engine.Sleep(static_cast<Time>(rng.NextBounded(static_cast<uint64_t>(max_gap))));
    }
    const auto target = static_cast<size_t>(rng.NextBounded(w.pollers.size()));
    ++w.pending[target];
    w.pollers[target]->Wake();
    w.Record(id, i);
  }
}

Trace RunWorld(bool park, const Shape& shape, uint64_t seed) {
  World w(park);
  Rng rng(seed);
  const Time periods[] = {2, 3, 4, 6};
  for (int p = 0; p < shape.pollers; ++p) {
    w.pollers.push_back(std::make_unique<Poller>(w.engine, &w.meter, kPollCharge));
    w.pending.push_back(0);
  }
  int total_items = 0;
  for (int p = 0; p < shape.pollers; ++p) {
    const Time period = shape.lockstep ? 3 : periods[rng.NextBounded(4)];
    const Time start = shape.lockstep ? 0 : static_cast<Time>(rng.NextBounded(5));
    const Time timeout =
        shape.deadlines && rng.NextBernoulli(0.5) ? static_cast<Time>(5 + rng.NextBounded(20)) : 0;
    w.engine.Spawn(PollLoop(w, p, period, start, timeout, shape.rounds, rng.Next()));
    total_items += shape.rounds;
  }
  // Wakes come from actors, from scheduled callbacks, and from between runs.
  const int per_waker = total_items / (shape.wakers + 1);
  for (int k = 0; k < shape.wakers; ++k) {
    w.engine.Spawn(WakeLoop(w, 100 + k, per_waker, shape.max_gap, rng.Next()));
  }
  for (int c = 0; c < per_waker; ++c) {
    const auto target = static_cast<size_t>(rng.NextBounded(w.pollers.size()));
    const auto at = static_cast<Time>(rng.NextBounded(static_cast<uint64_t>(shape.max_gap * 20)));
    w.engine.ScheduleAt(at, [&w, target, c] {
      ++w.pending[target];
      w.pollers[target]->Wake();
      w.Record(200, c);
    });
  }
  for (int chunk = 0; chunk < 40; ++chunk) {
    w.engine.RunUntil(w.engine.now() + static_cast<Time>(1 + rng.NextBounded(15)));
    w.Record(300, chunk);
    if (rng.NextBernoulli(0.3)) {
      const auto target = static_cast<size_t>(rng.NextBounded(w.pollers.size()));
      ++w.pending[target];
      w.pollers[target]->Wake();
    }
    if (rng.NextBernoulli(0.3)) {
      w.engine.ScheduleAfter(static_cast<Time>(rng.NextBounded(3)), [&w, chunk] {
        w.Record(400, chunk);
      });
    }
  }
  // Drain: keep feeding every poller until all loops are done.
  for (int guard = 0; guard < 200 && w.engine.live_actors() > 0; ++guard) {
    for (size_t p = 0; p < w.pollers.size(); ++p) {
      ++w.pending[p];
      w.pollers[p]->Wake();
    }
    w.engine.RunUntil(w.engine.now() + 50);
  }
  EXPECT_EQ(w.engine.live_actors(), 0);
  w.Record(500, 0);
  if (park) {
    EXPECT_LE(w.engine.dispatches(), w.engine.events_processed());
  } else {
    EXPECT_EQ(w.engine.dispatches(), w.engine.events_processed());
  }
  return w.trace;
}

void ExpectSameRun(const Shape& shape, int seeds) {
  uint64_t parked_runs = 0;
  for (int s = 0; s < seeds; ++s) {
    const auto seed = static_cast<uint64_t>(s) * 7919 + 17;
    const Trace slept = RunWorld(false, shape, seed);
    const Trace parked = RunWorld(true, shape, seed);
    ASSERT_EQ(slept.size(), parked.size()) << "seed " << seed;
    for (size_t i = 0; i < slept.size(); ++i) {
      const auto& [t0, a0, s0, e0, b0] = slept[i];
      const auto& [t1, a1, s1, e1, b1] = parked[i];
      ASSERT_EQ(slept[i], parked[i])
          << "seed " << seed << " record " << i << ": sleep (t=" << t0 << " actor=" << a0
          << " step=" << s0 << " events=" << e0 << " busy=" << b0 << ") park (t=" << t1
          << " actor=" << a1 << " step=" << s1 << " events=" << e1 << " busy=" << b1 << ")";
    }
    ++parked_runs;
  }
  EXPECT_EQ(parked_runs, static_cast<uint64_t>(seeds));
}

TEST(PollerTest, MixedPeriodsAndPhasesMatchSleepLoops) { ExpectSameRun(Shape{}, 150); }

TEST(PollerTest, LockstepPollersMatchSleepLoops) {
  Shape shape;
  shape.lockstep = true;
  shape.pollers = 5;
  ExpectSameRun(shape, 100);
}

// Many loops on one grid: ranks run out and are spread again.
TEST(PollerTest, CrowdedGridMatchesSleepLoops) {
  Shape shape;
  shape.lockstep = true;
  shape.pollers = 16;
  shape.wakers = 6;
  shape.rounds = 40;
  shape.max_gap = 4;
  ExpectSameRun(shape, 40);
}

TEST(PollerTest, DenseWakesOnPollInstantsMatchSleepLoops) {
  // Gaps below every period put wakes on poll instants, both before and
  // after the poll in seq order.
  Shape shape;
  shape.max_gap = 3;
  shape.wakers = 5;
  ExpectSameRun(shape, 100);
}

TEST(PollerTest, SparseWakesAndTimedWakesMatchSleepLoops) {
  Shape shape;
  shape.max_gap = 60;
  shape.wakers = 1;
  shape.rounds = 6;
  ExpectSameRun(shape, 100);
}

// The loops really park: polls skipped, not slept.
TEST(PollerTest, ParkedLoopSkipsItsPolls) {
  Engine engine;
  BusyMeter meter;
  Poller poller(engine, &meter, kPollCharge);
  bool ready = false;
  int polls = 0;
  engine.Spawn([](Poller& p, BusyMeter& m, bool& flag, int& n) -> Task<void> {
    while (!flag) {
      ++n;
      m.AddBusy(kPollCharge);
      co_await p.Park(10);
    }
  }(poller, meter, ready, polls));
  engine.RunUntil(1000);
  EXPECT_EQ(polls, 1);
  // The sleep chain would have polled at 0, 10, ..., 1000.
  EXPECT_EQ(engine.events_processed(), 100u);
  EXPECT_EQ(meter.busy(), 101 * kPollCharge);
  EXPECT_EQ(engine.dispatches(), 0u);
  engine.ScheduleAt(1005, [&] {
    ready = true;
    poller.Wake();
  });
  engine.RunUntil(2000);
  EXPECT_EQ(polls, 1);  // the poll at 1010 saw the flag and left the loop
  EXPECT_EQ(engine.now(), 2000);
  EXPECT_EQ(engine.events_processed(), 101u + 1u);
  EXPECT_EQ(engine.dispatches(), 2u);
  EXPECT_EQ(meter.busy(), 101 * kPollCharge);
}

}  // namespace
}  // namespace sim
