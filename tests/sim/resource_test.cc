#include "src/sim/resource.h"

#include <coroutine>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace sim {
namespace {

// An actor that makes one Use() of `r`: Use() is an awaitable, not a Task.
Task<void> UseOnce(Resource& r, Time service) { co_await r.Use(service); }

TEST(ResourceTest, ImmediateAcquireWhenAvailable) {
  Engine engine;
  Resource res(engine, 2);
  bool acquired = false;
  engine.Spawn([](Resource& r, bool* out) -> Task<void> {
    co_await r.Acquire();
    *out = true;
    r.Release();
  }(res, &acquired));
  engine.Run();
  EXPECT_TRUE(acquired);
  EXPECT_EQ(res.available(), 2);
  EXPECT_EQ(res.total_acquisitions(), 1u);
}

TEST(ResourceTest, CapacityLimitsConcurrency) {
  Engine engine;
  Resource res(engine, 2);
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    engine.Spawn([](Engine& e, Resource& r, int* cur, int* pk) -> Task<void> {
      co_await r.Acquire();
      ++*cur;
      *pk = std::max(*pk, *cur);
      co_await e.Sleep(Micros(10));
      --*cur;
      r.Release();
    }(engine, res, &concurrent, &peak));
  }
  engine.Run();
  EXPECT_EQ(peak, 2);
  // 6 jobs, 2 servers, 10us each -> 30us makespan.
  EXPECT_EQ(engine.now(), Micros(30));
}

TEST(ResourceTest, GrantsAreFifo) {
  Engine engine;
  Resource res(engine, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.Spawn([](Engine& e, Resource& r, std::vector<int>* out, int id) -> Task<void> {
      // Stagger arrival so the queue order is well defined.
      co_await e.Sleep(Nanos(id));
      co_await r.Acquire();
      out->push_back(id);
      co_await e.Sleep(Micros(1));
      r.Release();
    }(engine, res, &order, i));
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, UseHoldsForServiceTime) {
  Engine engine;
  Resource res(engine, 1);
  engine.Spawn(UseOnce(res, Micros(5)));
  engine.Spawn(UseOnce(res, Micros(5)));
  engine.Run();
  EXPECT_EQ(engine.now(), Micros(10));
  EXPECT_EQ(res.total_acquisitions(), 2u);
}

TEST(ResourceTest, WaitTimeAccounted) {
  Engine engine;
  Resource res(engine, 1);
  engine.Spawn(UseOnce(res, Micros(4)));
  engine.Spawn(UseOnce(res, Micros(4)));  // waits 4us
  engine.Spawn(UseOnce(res, Micros(4)));  // waits 8us
  engine.Run();
  EXPECT_EQ(res.total_wait(), Micros(12));
}

TEST(ResourceTest, BusyIntegralMeasuresUtilization) {
  Engine engine;
  Resource res(engine, 2);
  engine.Spawn(UseOnce(res, Micros(10)));
  engine.Run();
  // One of two permits busy for 10us out of 10us elapsed = 50%.
  EXPECT_DOUBLE_EQ(res.Utilization(0, engine.now()), 0.5);
}

TEST(ResourceTest, WatchedWindowExcludesEarlierBusyTime) {
  Engine engine;
  Resource res(engine, 1);
  // Busy 10us, idle 10us, busy 5us. A window armed at 10us must see only the
  // 5us of busy time inside [10us, 25us] — not the 10us from before it.
  res.WatchFrom(Micros(10));
  engine.Spawn([](Engine& e, Resource& r) -> Task<void> {
    co_await r.Use(Micros(10));
    co_await e.Sleep(Micros(10));
    co_await r.Use(Micros(5));
  }(engine, res));
  engine.Run();
  EXPECT_EQ(engine.now(), Micros(25));
  EXPECT_DOUBLE_EQ(res.Utilization(Micros(10), Micros(25)), 5.0 / 15.0);
  // Whole-run queries are unchanged by the watch.
  EXPECT_DOUBLE_EQ(res.Utilization(0, Micros(25)), 15.0 / 25.0);
}

TEST(ResourceTest, WatchBoundaryInsideABusySpanSplitsIt) {
  Engine engine;
  Resource res(engine, 1);
  // One 20us busy span; a window armed at its midpoint sees exactly half.
  res.WatchFrom(Micros(10));
  engine.Spawn(UseOnce(res, Micros(20)));
  engine.Run();
  EXPECT_DOUBLE_EQ(res.Utilization(Micros(10), Micros(20)), 1.0);
  EXPECT_DOUBLE_EQ(res.Utilization(0, Micros(20)), 1.0);
}

TEST(ResourceTest, UnwatchedWindowStartAfterLastChangeIsExact) {
  Engine engine;
  Resource res(engine, 1);
  engine.Spawn(UseOnce(res, Micros(10)));
  engine.Run();
  engine.RunUntil(Micros(40));
  // No watch needed: 20us lies in the idle span since the last transition,
  // so the busy integral there is reconstructible — zero busy in [20, 40].
  EXPECT_DOUBLE_EQ(res.Utilization(Micros(20), Micros(40)), 0.0);
}

TEST(ResourceTest, ZeroServiceUseSchedulesNoEvent) {
  Engine engine;
  Resource res(engine, 1);
  engine.Spawn(UseOnce(res, 0));
  EXPECT_EQ(res.available(), 1);
  EXPECT_EQ(res.total_acquisitions(), 1u);
  engine.Run();
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.now(), 0);
}

// The Acquire/Sleep/Release body Use() must be indistinguishable from.
Task<void> ReferenceUse(Engine& e, Resource& r, Time service) {
  co_await r.Acquire();
  co_await e.Sleep(service);
  r.Release();
}

struct UseRecord {
  int actor;
  Time resumed_at;
  uint64_t acquisitions;  // grants made by then: pins the grant order
  bool operator==(const UseRecord&) const = default;
};

template <bool kReference>
Task<void> UseMixActor(Engine& e, Resource& r, int actor, std::vector<UseRecord>* log) {
  static constexpr Time kServices[] = {700, 0, 1500, 200, 0, 900};
  co_await e.Sleep(Nanos(300 * actor));
  for (int i = 0; i < 6; ++i) {
    const Time service = kServices[(actor + i) % 6];
    if constexpr (kReference) {
      co_await ReferenceUse(e, r, service);
    } else {
      co_await r.Use(service);
    }
    log->push_back(UseRecord{actor, e.now(), r.total_acquisitions()});
  }
}

struct UseMixOutcome {
  std::vector<UseRecord> log;
  uint64_t events;
  Time total_wait;
  Time busy;
};

template <bool kReference>
UseMixOutcome RunUseMix() {
  Engine engine;
  Resource res(engine, 2);
  UseMixOutcome out;
  for (int actor = 0; actor < 5; ++actor) {
    engine.Spawn(UseMixActor<kReference>(engine, res, actor, &out.log));
  }
  engine.Run();
  out.events = engine.events_processed();
  out.total_wait = res.total_wait();
  out.busy = res.busy_integral();
  return out;
}

TEST(ResourceTest, UseMatchesAcquireSleepReleaseExactly) {
  const UseMixOutcome use = RunUseMix<false>();
  const UseMixOutcome reference = RunUseMix<true>();
  // The mix has both kinds of use: actor 0's first finds both permits free
  // at t=0, and later ones wait for a permit.
  ASSERT_GT(reference.total_wait, 0);
  EXPECT_EQ(use.log, reference.log);
  EXPECT_EQ(use.events, reference.events);
  EXPECT_EQ(use.total_wait, reference.total_wait);
  EXPECT_EQ(use.busy, reference.busy);
}

TEST(ResourceTest, DestroyingAnActorWaitingInUseFreesItsFrames) {
  Engine engine;
  Resource res(engine, 1);
  // Take the only permit for good, so the waiter below never runs again.
  engine.Spawn([](Resource& r) -> Task<void> { co_await r.Acquire(); }(res));
  Task<void> waiter = UseOnce(res, Micros(1));
  std::coroutine_handle<> frame = waiter.Release();
  frame.resume();  // runs into the contended Use and queues
  EXPECT_EQ(res.queue_length(), 1);
  // Under ASan a leaked contended-Use frame fails this test at exit.
  frame.destroy();
  engine.Run();
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(MutexTest, ProvidesMutualExclusion) {
  Engine engine;
  Mutex mu(engine);
  int in_section = 0;
  bool overlapped = false;
  for (int i = 0; i < 4; ++i) {
    engine.Spawn([](Engine& e, Mutex& m, int* in, bool* bad) -> Task<void> {
      co_await m.Lock();
      if (++*in > 1) {
        *bad = true;
      }
      co_await e.Sleep(Micros(3));
      --*in;
      m.Unlock();
    }(engine, mu, &in_section, &overlapped));
  }
  engine.Run();
  EXPECT_FALSE(overlapped);
  EXPECT_EQ(engine.now(), Micros(12));
  EXPECT_EQ(mu.total_acquisitions(), 4u);
}

// Property: for any (capacity, jobs, service), makespan equals the FIFO
// k-server bound ceil(jobs / capacity) * service when all jobs arrive at t=0.
class ResourceMakespanTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ResourceMakespanTest, MatchesKServerBound) {
  const auto [capacity, jobs, service_us] = GetParam();
  Engine engine;
  Resource res(engine, capacity);
  for (int i = 0; i < jobs; ++i) {
    engine.Spawn(UseOnce(res, Micros(service_us)));
  }
  engine.Run();
  const int waves = (jobs + capacity - 1) / capacity;
  EXPECT_EQ(engine.now(), Micros(static_cast<int64_t>(waves) * service_us));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ResourceMakespanTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 8),
                                            ::testing::Values(1, 5, 16, 33),
                                            ::testing::Values(1, 7)));

}  // namespace
}  // namespace sim
