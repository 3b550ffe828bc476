#include "src/sim/engine.h"

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/schedule.h"
#include "src/sim/signal.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "tests/testutil.h"

namespace sim {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(EngineTest, ScheduledCallbacksRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(Micros(3), [&] { order.push_back(3); });
  engine.ScheduleAt(Micros(1), [&] { order.push_back(1); });
  engine.ScheduleAt(Micros(2), [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), Micros(3));
}

TEST(EngineTest, SameInstantEventsRunFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(Micros(5), [&order, i] { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EngineTest, PastScheduleClampsToNow) {
  Engine engine;
  Time observed = -1;
  engine.ScheduleAt(Micros(10), [&] {
    engine.ScheduleAt(Micros(2), [&] { observed = engine.now(); });
  });
  engine.Run();
  EXPECT_EQ(observed, Micros(10));
}

TEST(EngineTest, SleepAdvancesVirtualTime) {
  Engine engine;
  Time woke = 0;
  engine.Spawn([](Engine& e, Time* out) -> Task<void> {
    co_await e.Sleep(Micros(7));
    *out = e.now();
  }(engine, &woke));
  engine.Run();
  EXPECT_EQ(woke, Micros(7));
}

TEST(EngineTest, ZeroSleepDoesNotSuspend) {
  Engine engine;
  bool ran = false;
  engine.Spawn([](Engine& e, bool* out) -> Task<void> {
    co_await e.Sleep(0);
    *out = true;
    co_return;
  }(engine, &ran));
  // Spawn starts the actor inline; a zero sleep must complete synchronously.
  EXPECT_TRUE(ran);
  engine.Run();
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAt(Micros(1), [&] { ++fired; });
  engine.ScheduleAt(Micros(100), [&] { ++fired; });
  EXPECT_FALSE(engine.RunUntil(Micros(10)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), Micros(10));
  EXPECT_TRUE(engine.RunUntil(Micros(1000)));
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, RunForIsRelative) {
  Engine engine;
  engine.ScheduleAt(Micros(5), [] {});
  engine.RunUntil(Micros(10));
  int fired = 0;
  engine.ScheduleAt(Micros(15), [&] { ++fired; });
  engine.RunFor(Micros(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), Micros(20));
}

TEST(EngineTest, SpawnTracksLiveActors) {
  Engine engine;
  engine.Spawn([](Engine& e) -> Task<void> { co_await e.Sleep(Micros(1)); }(engine));
  engine.Spawn([](Engine& e) -> Task<void> { co_await e.Sleep(Micros(2)); }(engine));
  EXPECT_EQ(engine.live_actors(), 2);
  engine.Run();
  EXPECT_EQ(engine.live_actors(), 0);
}

TEST(EngineTest, ActorExceptionRethrownFromRun) {
  Engine engine;
  engine.Spawn([](Engine& e) -> Task<void> {
    co_await e.Sleep(Micros(1));
    throw std::runtime_error("actor failed");
  }(engine));
  EXPECT_THROW(engine.Run(), std::runtime_error);
}

TEST(EngineTest, YieldRunsAfterPendingEventsAtSameInstant) {
  Engine engine;
  std::vector<int> order;
  engine.Spawn([](Engine& e, std::vector<int>* out) -> Task<void> {
    co_await e.Sleep(Micros(1));
    out->push_back(1);
    co_await e.Yield();
    out->push_back(3);
  }(engine, &order));
  engine.ScheduleAt(Micros(1), [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, NestedTaskAwaitPropagatesValue) {
  Engine engine;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.Sleep(Micros(2));
    co_return 42;
  };
  auto outer = [&inner](Engine& e) -> Task<int> {
    int v = co_await inner(e);
    co_return v + 1;
  };
  int result = rfptest::RunSync(engine, outer(engine));
  EXPECT_EQ(result, 43);
  EXPECT_EQ(engine.now(), Micros(2));
}

TEST(EngineTest, DeepTaskChainDoesNotOverflowStack) {
  Engine engine;
  // 50k chained awaits exercises symmetric transfer.
  auto leaf = [](Engine& e) -> Task<int> {
    co_await e.Sleep(1);
    co_return 1;
  };
  auto driver = [&leaf](Engine& e) -> Task<int> {
    int total = 0;
    for (int i = 0; i < 50000; ++i) {
      total += co_await leaf(e);
    }
    co_return total;
  };
  EXPECT_EQ(rfptest::RunSync(engine, driver(engine)), 50000);
}

// Same-instant lane vs heap: events already in the heap for the current
// instant (scheduled before the clock got there) have lower sequence numbers
// than anything scheduled at now(), so they must dispatch first.
TEST(EngineTest, LaneAndHeapEventsAtOneInstantDispatchInSeqOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(Micros(5), [&] { order.push_back(1); });
  engine.ScheduleAt(Micros(5), [&] {
    order.push_back(2);
    engine.ScheduleAt(engine.now(), [&] { order.push_back(4); });  // lane
    engine.ScheduleAfter(0, [&] { order.push_back(5); });          // lane
  });
  engine.ScheduleAt(Micros(5), [&] { order.push_back(3); });  // heap, for "now"
  engine.ScheduleAt(Micros(6), [&] { order.push_back(6); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(engine.events_processed(), 6u);
}

TEST(EngineTest, CoroutineWakesAtOneInstantInterleaveWithHeapBySeq) {
  Engine engine;
  Notifier notifier(engine);
  std::vector<int> order;
  for (int id = 0; id < 2; ++id) {
    engine.Spawn([](Notifier& n, std::vector<int>* out, int tag) -> Task<void> {
      co_await n.Wait();
      out->push_back(tag);
    }(notifier, &order, 10 + id));
  }
  engine.ScheduleAt(Micros(5), [&] {
    order.push_back(1);
    notifier.NotifyAll();  // both waiters go to the lane
  });
  engine.ScheduleAt(Micros(5), [&] { order.push_back(2); });  // earlier seq, heap
  engine.Spawn([](Engine& e, std::vector<int>* out) -> Task<void> {
    co_await e.Sleep(Micros(5));  // heap, seq after both callbacks
    out->push_back(3);
  }(engine, &order));
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 10, 11}));
}

TEST(EngineTest, PastScheduleClampsIntoLaneBehindEarlierHeapEvents) {
  Engine engine;
  std::vector<std::pair<int, Time>> fired;
  engine.ScheduleAt(Micros(10), [&] {
    fired.emplace_back(1, engine.now());
    engine.ScheduleAt(Micros(2), [&] { fired.emplace_back(3, engine.now()); });
    engine.ScheduleAt(Micros(10), [&] { fired.emplace_back(4, engine.now()); });
  });
  engine.ScheduleAt(Micros(10), [&] { fired.emplace_back(2, engine.now()); });
  engine.Run();
  const std::vector<std::pair<int, Time>> want = {
      {1, Micros(10)}, {2, Micros(10)}, {3, Micros(10)}, {4, Micros(10)}};
  EXPECT_EQ(fired, want);
}

TEST(EngineTest, RunUntilDrainsLaneAtDeadlineThenStops) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(Micros(10), [&] {
    order.push_back(1);
    engine.ScheduleAt(engine.now(), [&] {
      order.push_back(2);
      engine.ScheduleAt(engine.now(), [&] { order.push_back(3); });
    });
  });
  engine.ScheduleAt(Micros(11), [&] { order.push_back(4); });
  EXPECT_FALSE(engine.RunUntil(Micros(10)));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), Micros(10));

  // A lane event queued between runs belongs to the deadline instant.
  engine.ScheduleAt(engine.now(), [&] { order.push_back(5); });
  EXPECT_FALSE(engine.RunUntil(Micros(10)));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5}));
  EXPECT_TRUE(engine.RunUntil(Micros(20)));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 4}));
  EXPECT_EQ(engine.now(), Micros(20));
}

// RunUntil() with a deadline before now() moves the clock back while a
// current-instant event is still queued; an event then scheduled at the new
// now() is earlier in time and must run first.
TEST(EngineTest, RunUntilBeforeNowKeepsTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(Micros(10), [&] { order.push_back(1); });
  EXPECT_TRUE(engine.RunUntil(Micros(10)));
  engine.ScheduleAt(engine.now(), [&] { order.push_back(3); });
  EXPECT_FALSE(engine.RunUntil(Micros(5)));
  EXPECT_EQ(engine.now(), Micros(5));
  engine.ScheduleAt(engine.now(), [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), Micros(10));
}

TEST(EngineTest, RunUntilStopsWithYieldingActorAtDeadline) {
  Engine engine;
  int steps = 0;
  engine.Spawn([](Engine& e, int* out) -> Task<void> {
    co_await e.Sleep(Micros(10));
    for (int i = 0; i < 3; ++i) {
      ++*out;
      co_await e.Yield();  // lane at the deadline instant
    }
    co_await e.Sleep(Micros(1));
    ++*out;
  }(engine, &steps));
  EXPECT_FALSE(engine.RunUntil(Micros(10)));
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(engine.live_actors(), 1);
  EXPECT_TRUE(engine.RunUntil(Micros(11)));
  EXPECT_EQ(steps, 4);
  EXPECT_EQ(engine.live_actors(), 0);
}

// A callback's slab slot is freed before it runs, so the callbacks it
// schedules may reuse that slot (and grow the slab) while it is executing.
TEST(EngineTest, CallbackSchedulingCallbacksReusesItsSlotSafely) {
  Engine engine;
  std::vector<std::string> seen;
  std::function<void(int)> chain = [&](int depth) {
    const std::string tag(64, static_cast<char>('a' + depth % 26));  // heap-held capture
    engine.ScheduleAt(engine.now(), [&, tag, depth] {
      seen.push_back(tag);
      if (depth < 100) {
        // Grow the slab under the running callback, then read its capture.
        for (int i = 0; i < 32; ++i) {
          engine.ScheduleAfter(Micros(1), [] {});
        }
        chain(depth + 1);
        seen.back() += tag.substr(0, 1);
      }
    });
  };
  chain(0);
  engine.Run();
  ASSERT_EQ(seen.size(), 101u);
  for (size_t depth = 0; depth < seen.size(); ++depth) {
    const char c = static_cast<char>('a' + depth % 26);
    // Each entry but the last got one extra char from its callback's own
    // capture after scheduling its successor.
    EXPECT_EQ(seen[depth].substr(0, 64), std::string(64, c)) << depth;
    EXPECT_EQ(seen[depth].size(), depth + 1 < seen.size() ? 65u : 64u) << depth;
  }
  EXPECT_EQ(engine.events_processed(), 101u + 100u * 32u);
}

// A policy sees one ready set per instant: heap events and lane events at
// that instant, merged into FIFO (seq) order.
TEST(EngineTest, PolicyReadySetMergesLaneEventsInFifoIndexOrder) {
  auto scenario = [](SchedulePolicy* policy) {
    Engine engine;
    engine.set_schedule_policy(policy);
    std::vector<char> order;
    engine.ScheduleAt(Micros(5), [&] { order.push_back('A'); });
    engine.ScheduleAt(Micros(5), [&] {
      order.push_back('B');
      engine.ScheduleAt(engine.now(), [&] { order.push_back('C'); });  // lane
    });
    engine.ScheduleAt(Micros(5), [&] { order.push_back('E'); });
    engine.Run();
    return order;
  };
  // {A,B,E} pick 1 -> B (queues C); {A,E,C} pick 2 -> C; {A,E} pick 0 -> A.
  ReplayPolicy forced({1, 2, 0});
  forced.set_strict(true);
  EXPECT_EQ(scenario(&forced), (std::vector<char>{'B', 'C', 'A', 'E'}));
  ASSERT_EQ(forced.decisions().size(), 3u);
  EXPECT_EQ(forced.decisions()[0].arity, 3u);
  EXPECT_EQ(forced.decisions()[1].arity, 3u);
  EXPECT_EQ(forced.decisions()[2].arity, 2u);

  FifoPolicy fifo;
  EXPECT_EQ(scenario(&fifo), scenario(nullptr));
}

TEST(EngineTest, ReplayPolicySelfReplaysLaneHeavySchedules) {
  auto scenario = [](SchedulePolicy* policy) {
    Engine engine;
    engine.set_schedule_policy(policy);
    Notifier notifier(engine);
    std::vector<int> order;
    for (int id = 0; id < 4; ++id) {
      engine.Spawn([](Engine& e, Notifier& n, std::vector<int>* out, int tag) -> Task<void> {
        for (int round = 0; round < 3; ++round) {
          co_await n.Wait();
          out->push_back(tag * 10 + round);
          co_await e.Yield();
          out->push_back(tag * 10 + round + 100);
        }
      }(engine, notifier, &order, id));
    }
    engine.Spawn([](Engine& e, Notifier& n) -> Task<void> {
      for (int round = 0; round < 3; ++round) {
        co_await e.Sleep(Micros(1));
        n.NotifyAll();
      }
    }(engine, notifier));
    engine.Run();
    return order;
  };
  RandomShufflePolicy shuffle(7);
  const std::vector<int> original = scenario(&shuffle);
  ASSERT_FALSE(shuffle.decisions().empty());
  ReplayPolicy replay(shuffle.choices());
  replay.set_strict(true);
  EXPECT_EQ(scenario(&replay), original);
  EXPECT_EQ(replay.choices(), shuffle.choices());
  EXPECT_NE(original, scenario(nullptr));  // the shuffle explored a non-FIFO order
}

}  // namespace
}  // namespace sim
