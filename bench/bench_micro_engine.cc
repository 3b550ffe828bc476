// Micro-benchmarks of the simulator itself (google-benchmark): event
// dispatch, coroutine round trips, resource handoffs, and a full simulated
// RDMA READ. These track the cost of the substrate — useful when deciding
// how long a simulated window a bench can afford. The populated-heap,
// fan-out and nested-task cases have the shape of a real bench's traffic:
// hundreds of actors asleep at once, same-instant wake-ups, and short-lived
// task frames per simulated call.

#include <benchmark/benchmark.h>

#include "bench/common.h"

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/signal.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

namespace {

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.ScheduleAt(i, [] {});
    }
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventDispatch);

void BM_CoroutineSleepLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    engine.Spawn([](sim::Engine& eng) -> sim::Task<void> {
      for (int i = 0; i < 1000; ++i) {
        co_await eng.Sleep(1);
      }
    }(engine));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSleepLoop);

void BM_ResourceHandoff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Resource resource(engine, 1);
    for (int w = 0; w < 4; ++w) {
      engine.Spawn([](sim::Resource& r) -> sim::Task<void> {
        for (int i = 0; i < 250; ++i) {
          co_await r.Use(1);
        }
      }(resource));
    }
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ResourceHandoff);

// 256 actors sleeping on staggered delays keep ~256 events in the heap: the
// shape of a bench with hundreds of client, server and NIC actors.
void BM_PopulatedHeapSleep(benchmark::State& state) {
  constexpr int kActors = 256;
  constexpr int kSleeps = 40;
  for (auto _ : state) {
    sim::Engine engine;
    for (int a = 0; a < kActors; ++a) {
      engine.Spawn([](sim::Engine& eng, sim::Time delay) -> sim::Task<void> {
        for (int i = 0; i < kSleeps; ++i) {
          co_await eng.Sleep(delay);
        }
      }(engine, 100 + 7 * a));
    }
    engine.Run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * kActors * kSleeps);
}
BENCHMARK(BM_PopulatedHeapSleep);

// One notifier wakes 64 waiters at one instant: every wake-up is an event
// for the current instant.
void BM_NotifyAllFanOut(benchmark::State& state) {
  constexpr int kWaiters = 64;
  constexpr int kRounds = 50;
  for (auto _ : state) {
    sim::Engine engine;
    sim::Notifier notifier(engine);
    for (int w = 0; w < kWaiters; ++w) {
      engine.Spawn([](sim::Notifier& n) -> sim::Task<void> {
        for (int i = 0; i < kRounds; ++i) {
          co_await n.Wait();
        }
      }(notifier));
    }
    engine.Spawn([](sim::Engine& eng, sim::Notifier& n) -> sim::Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        co_await eng.Sleep(1);
        n.NotifyAll();
      }
    }(engine, notifier));
    engine.Run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * kWaiters * kRounds);
}
BENCHMARK(BM_NotifyAllFanOut);

// Two nested tasks per iteration, the innermost sleeping: the frame churn
// of a simulated call's helper coroutines.
void BM_NestedTaskChurn(benchmark::State& state) {
  constexpr int kCalls = 1000;
  for (auto _ : state) {
    sim::Engine engine;
    engine.Spawn([](sim::Engine& eng) -> sim::Task<void> {
      for (int i = 0; i < kCalls; ++i) {
        co_await [](sim::Engine& e) -> sim::Task<void> {
          co_await [](sim::Engine& e2) -> sim::Task<void> { co_await e2.Sleep(1); }(e);
        }(eng);
      }
    }(engine));
    engine.Run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_NestedTaskChurn);

void BM_SimulatedRdmaRead(benchmark::State& state) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& a = fabric.AddNode("a");
  rdma::Node& b = fabric.AddNode("b");
  auto [qa, qb] = fabric.ConnectRc(a, b);
  (void)qb;
  rdma::MemoryRegion* local = a.RegisterMemory(4096, rdma::kAccessLocal);
  rdma::MemoryRegion* remote = b.RegisterMemory(4096, rdma::kAccessRemoteRead);
  for (auto _ : state) {
    engine.Spawn([](rdma::QueuePair* qp, rdma::MemoryRegion* l,
                    rdma::MemoryRegion* r) -> sim::Task<void> {
      co_await qp->Read(*l, 0, r->remote_key(), 0, 32);
    }(qa, local, remote));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedRdmaRead);

void BM_HistogramRecord(benchmark::State& state) {
  sim::Histogram histogram;
  int64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v);
    v = (v * 2862933555777941757LL + 3037000493LL) & 0xffffff;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

// Custom main so bench::Init can strip --json/--trace before
// google-benchmark sees (and rejects) them.
int main(int argc, char** argv) {
  bench::Init(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
