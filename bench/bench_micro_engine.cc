// Micro-benchmarks of the simulator itself (google-benchmark): event
// dispatch, coroutine round trips, resource handoffs, a full simulated
// RDMA READ, and Jakiro's BucketTable GET and PUT. These track the cost of
// the substrate — useful when deciding how long a simulated window a bench
// can afford. The populated-heap,
// fan-out and nested-task cases have the shape of a real bench's traffic:
// hundreds of actors asleep at once, same-instant wake-ups, and short-lived
// task frames per simulated call.

#include <benchmark/benchmark.h>

#include "bench/common.h"

#include <memory>
#include <vector>

#include "src/kv/bucket_table.h"
#include "src/kv/common.h"
#include "src/rdma/fabric.h"

#include "src/sim/engine.h"
#include "src/sim/poller.h"
#include "src/sim/random.h"
#include "src/sim/resource.h"
#include "src/sim/signal.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "src/workload/ycsb.h"

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

// N poll loops on one period, each woken once per M periods, written as
// Sleep loops and as parked pollers. Items are polls (events_processed(),
// which counts a skipped poll as the event it stands for), so the parked
// row's time per item is what a skipped poll costs.
sim::Task<void> PollLoop(sim::Engine& engine, sim::Poller& poller, const int& pending,
                         const bool& stop, bool park, sim::Time period, sim::Time phase) {
  co_await engine.Sleep(phase);
  int seen = 0;
  while (!stop) {
    if (pending != seen) {
      seen = pending;
      continue;
    }
    if (park) {
      co_await poller.Park(period);
    } else {
      co_await engine.Sleep(period);
    }
  }
}

void BM_ParkedPollers(benchmark::State& state) {
  const int pollers = static_cast<int>(state.range(0));
  const int wake_every = static_cast<int>(state.range(1));
  const bool park = state.range(2) != 0;
  constexpr sim::Time kPeriod = 200;
  constexpr int kPeriods = 400;
  uint64_t polls = 0;
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<std::unique_ptr<sim::Poller>> loops;
    loops.reserve(static_cast<size_t>(pollers));
    std::vector<int> pending(static_cast<size_t>(pollers), 0);
    bool stop = false;
    for (int p = 0; p < pollers; ++p) {
      loops.push_back(std::make_unique<sim::Poller>(engine));
      engine.Spawn(PollLoop(engine, *loops.back(), pending[static_cast<size_t>(p)], stop, park,
                            kPeriod, p % kPeriod));
    }
    engine.Spawn([](sim::Engine& e, std::vector<std::unique_ptr<sim::Poller>>& ls,
                    std::vector<int>& work, bool& done, int every) -> sim::Task<void> {
      const size_t n = ls.size();
      const size_t per_period = (n + static_cast<size_t>(every) - 1) / static_cast<size_t>(every);
      size_t next = 0;
      for (int t = 0; t < kPeriods; ++t) {
        co_await e.Sleep(kPeriod);
        for (size_t k = 0; k < per_period; ++k, next = (next + 1) % n) {
          ++work[next];
          ls[next]->Wake();
        }
      }
      done = true;
      for (const auto& l : ls) {
        l->Wake();
      }
    }(engine, loops, pending, stop, wake_every));
    engine.Run();
    polls += engine.events_processed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(polls));
}
BENCHMARK(BM_ParkedPollers)
    ->ArgNames({"pollers", "wake_every", "park"})
    ->Args({64, 16, 0})
    ->Args({64, 16, 1})
    ->Args({64, 1, 0})
    ->Args({64, 1, 1});

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

// Jakiro's partition tables at kv_small_get's shape: 2^18 16-byte keys
// spread over 6 tables of 2^16 buckets (routed as JakiroServer does), 32 B
// values, GETs of uniformly drawn keys. Each GET costs a bucket line and a
// key/value line, so the time per item is mostly two cache misses.
struct TableSet {
  TableSet(uint64_t key_count, uint32_t value_bytes) : keys(key_count * 16) {
    for (int t = 0; t < kTables; ++t) {
      tables.push_back(std::make_unique<kv::BucketTable>(size_t{1} << 16));
    }
    std::vector<std::byte> value(value_bytes);
    for (uint64_t id = 0; id < key_count; ++id) {
      const std::span<std::byte> k = key(id);
      workload::MakeKey(id, k);
      workload::FillValue(id, value);
      owners.push_back(static_cast<uint8_t>(sim::Mix64(kv::HashBytes(k)) % kTables));
      tables[owners.back()]->Put(k, value);
    }
  }
  std::span<std::byte> key(uint64_t id) { return std::span<std::byte>(keys).subspan(id * 16, 16); }
  kv::BucketTable& owner(uint64_t id) { return *tables[owners[id]]; }

  static constexpr int kTables = 6;
  std::vector<std::byte> keys;
  std::vector<uint8_t> owners;
  std::vector<std::unique_ptr<kv::BucketTable>> tables;
};

void BM_BucketTableGet(benchmark::State& state) {
  constexpr uint64_t kKeys = uint64_t{1} << 18;
  static TableSet set(kKeys, 32);
  sim::Rng rng(7);
  for (auto _ : state) {
    const uint64_t id = rng.NextBounded(kKeys);
    benchmark::DoNotOptimize(set.owner(id).Get(set.key(id)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketTableGet);

// Overwrites with log-uniform 32 B-8 KiB values (kv_mixed_put's sizes) over
// 2^13 keys in the same six tables. A PUT that fits the key's storage
// overwrites in place and a larger one moves it, so once each key has held
// an 8 KiB value every PUT is an in-place copy.
void BM_BucketTablePut(benchmark::State& state) {
  constexpr uint64_t kKeys = uint64_t{1} << 13;
  static TableSet set(kKeys, 32);
  sim::Rng rng(11);
  std::vector<std::byte> value(8192);
  workload::FillValue(1, value);
  for (auto _ : state) {
    const uint64_t id = rng.NextBounded(kKeys);
    const size_t size = size_t{32} << rng.NextBounded(9);
    set.owner(id).Put(set.key(id), std::span<const std::byte>(value.data(), size));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketTablePut);

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
