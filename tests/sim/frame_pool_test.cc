// Coroutine frame recycling (src/sim/frame_pool.h). This binary replaces the
// global operator new to count every heap allocation, so it proves the
// steady-state engine path allocates nothing: no fresh frames, and no event
// queue growth once the queues have reached their working size.

#include "src/sim/frame_pool.h"

#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace {
size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*bytes*/) noexcept { std::free(p); }

namespace sim {
namespace {

using internal::FramePool;
using internal::kFramePoolEnabled;

Task<int> Leaf(Engine& engine) {
  co_await engine.Sleep(1);
  co_return 1;
}

Task<int> Middle(Engine& engine) {
  const int v = co_await Leaf(engine);
  co_return v + 1;
}

Task<void> Loop(Engine& engine, int iterations, int* sum) {
  for (int i = 0; i < iterations; ++i) {
    co_await engine.Sleep(1);
    *sum += co_await Middle(engine);
  }
}

TEST(FramePoolTest, SteadyStateSleepAndNestedTasksAllocateNothing) {
  constexpr int kIterations = 1000;
  Engine engine;
  int sum = 0;
  engine.Spawn(Loop(engine, kIterations, &sum));  // warm-up pass
  engine.Run();

  const size_t before = g_allocations;
  engine.Spawn(Loop(engine, kIterations, &sum));
  engine.Run();
  const size_t fresh = g_allocations - before;

  EXPECT_EQ(sum, 2 * 2 * kIterations);
  if (kFramePoolEnabled) {
    EXPECT_EQ(fresh, 0u);
  } else {
    // Sanitized build: every Middle and Leaf frame is a real allocation, so
    // a use-after-free of a destroyed frame stays visible to ASan.
    EXPECT_GE(fresh, 2u * kIterations);
  }
}

TEST(FramePoolTest, FreedFrameIsReusedWithinItsSizeClass) {
  if (!kFramePoolEnabled) {
    GTEST_SKIP() << "frame pool forwards to ::operator new under ASan";
  }
  void* a = FramePool::Allocate(100);
  FramePool::Deallocate(a, 100);
  void* b = FramePool::Allocate(128);  // same 64 B class: (64, 128]
  EXPECT_EQ(b, a);
  void* c = FramePool::Allocate(129);  // next class
  EXPECT_NE(c, a);
  FramePool::Deallocate(b, 128);
  FramePool::Deallocate(c, 129);
}

TEST(FramePoolTest, LargeFramesBypassThePool) {
  const size_t before = g_allocations;
  void* big = FramePool::Allocate(FramePool::kMaxPooled + 1);
  FramePool::Deallocate(big, FramePool::kMaxPooled + 1);
  void* again = FramePool::Allocate(FramePool::kMaxPooled + 1);
  FramePool::Deallocate(again, FramePool::kMaxPooled + 1);
  EXPECT_EQ(g_allocations - before, 2u);
}

// drawn() counts every frame a thread allocates, pooled or not, sanitized
// build or not, so host-work counts and frame-pinning tests read the same
// everywhere.
TEST(FramePoolTest, DrawnCountsEveryFrame) {
  constexpr int kIterations = 100;
  Engine engine;
  int sum = 0;
  const uint64_t before = FramePool::drawn();
  engine.Spawn(Loop(engine, kIterations, &sum));  // the Spawn wrapper and Loop
  engine.Run();
  EXPECT_EQ(FramePool::drawn() - before, 2u + 2u * kIterations);  // + Middle and Leaf
  void* big = FramePool::Allocate(FramePool::kMaxPooled + 1);
  FramePool::Deallocate(big, FramePool::kMaxPooled + 1);
  EXPECT_EQ(FramePool::drawn() - before, 3u + 2u * kIterations);
}

}  // namespace
}  // namespace sim
