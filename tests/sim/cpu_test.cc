#include "src/sim/cpu.h"

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace sim {
namespace {

// An actor that charges `cpu_time` to core `core` once.
Task<void> ComputeOnce(CpuSet& cpus, int core, Time cpu_time) {
  co_await cpus.ComputeOn(core, cpu_time);
}

TEST(CpuSetTest, ParallelComputeOnFreeCores) {
  Engine engine;
  CpuSet cpus(engine, 4);
  for (int i = 0; i < 4; ++i) {
    engine.Spawn(ComputeOnce(cpus, i, Micros(10)));
  }
  engine.Run();
  EXPECT_EQ(engine.now(), Micros(10));
}

TEST(CpuSetTest, OversubscriptionSerializes) {
  Engine engine;
  CpuSet cpus(engine, 2);
  for (int i = 0; i < 6; ++i) {
    engine.Spawn(ComputeOnce(cpus, i % 2, Micros(10)));  // three actors per core
  }
  engine.Run();
  EXPECT_EQ(engine.now(), Micros(30));
}

TEST(CpuSetTest, UtilizationReflectsLoad) {
  Engine engine;
  CpuSet cpus(engine, 2);
  engine.Spawn(ComputeOnce(cpus, 1, Micros(10)));
  engine.Run();
  EXPECT_DOUBLE_EQ(cpus.CoreUtilization(0, 0, engine.now()), 0.0);
  EXPECT_DOUBLE_EQ(cpus.CoreUtilization(1, 0, engine.now()), 1.0);
}

TEST(CpuSetTest, WatchedWindowReportsPerCoreBusyFractionExactly) {
  Engine engine;
  CpuSet cpus(engine, 2);
  cpus.WatchUtilization(Micros(10));
  engine.Spawn([](Engine& e, CpuSet& c) -> Task<void> {
    co_await c.ComputeOn(0, Micros(10));  // entirely before the window
    co_await e.Sleep(Micros(5));
    co_await c.ComputeOn(1, Micros(5));  // entirely inside it
  }(engine, cpus));
  engine.Run();
  EXPECT_EQ(engine.now(), Micros(20));
  // Core 0's pre-window busy time must not leak into the measure window.
  EXPECT_DOUBLE_EQ(cpus.CoreUtilization(0, Micros(10), Micros(20)), 0.0);
  EXPECT_DOUBLE_EQ(cpus.CoreUtilization(1, Micros(10), Micros(20)), 0.5);
}

TEST(BusyMeterTest, UtilizationIsBusyOverWindow) {
  BusyMeter meter;
  meter.AddBusy(Micros(30));
  EXPECT_DOUBLE_EQ(meter.Utilization(0, Micros(100)), 0.3);
  meter.Reset();
  EXPECT_DOUBLE_EQ(meter.Utilization(0, Micros(100)), 0.0);
}

TEST(BusyMeterTest, UtilizationCapsAtOne) {
  BusyMeter meter;
  meter.AddBusy(Micros(200));
  EXPECT_DOUBLE_EQ(meter.Utilization(0, Micros(100)), 1.0);
}

TEST(BusyMeterTest, EmptyWindowIsZero) {
  BusyMeter meter;
  meter.AddBusy(Micros(5));
  EXPECT_DOUBLE_EQ(meter.Utilization(Micros(10), Micros(10)), 0.0);
}

}  // namespace
}  // namespace sim
