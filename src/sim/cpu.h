// CPU modelling helpers.
//
// CpuSet holds a node's cores. A pinned actor charges compute time to one
// specific core with `co_await cpus.ComputeOn(core, ns)`, so two workers
// affinitized to the same core contend (FIFO) while workers on distinct
// cores run in parallel (docs/multicore.md). BusyMeter accumulates per-actor
// busy time so client CPU utilization (paper Fig. 15) can be reported as
// busy-time over wall-time.

#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <memory>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/time.h"

namespace sim {

class CpuSet {
 public:
  CpuSet(Engine& engine, int cores) {
    per_core_.reserve(static_cast<size_t>(cores));
    for (int i = 0; i < cores; ++i) {
      per_core_.push_back(std::make_unique<Resource>(engine, 1));
    }
  }

  int cores() const { return static_cast<int>(per_core_.size()); }

  // Core `index` as a single-permit station.
  Resource& core(int index) { return *per_core_.at(static_cast<size_t>(index)); }

  // Occupies core `core` for `cpu_time`: pinned compute. Actors pinned to
  // the same core serialize in FIFO order; distinct cores never contend.
  auto ComputeOn(int core, Time cpu_time) { return this->core(core).Use(cpu_time); }

  // Busy fraction of one core over the window.
  double CoreUtilization(int core, Time window_start, Time window_end) const {
    return per_core_.at(static_cast<size_t>(core))->Utilization(window_start, window_end);
  }

  // Arms an exact utilization window on every core (Resource::WatchFrom), so
  // CoreUtilization(at, end) reports the busy fraction of [at, end] alone.
  void WatchUtilization(Time at) {
    for (const auto& core : per_core_) {
      core->WatchFrom(at);
    }
  }

 private:
  std::vector<std::unique_ptr<Resource>> per_core_;
};

// Accumulates the virtual time an actor spent busy (computing or spinning).
// Utilization over a window is busy / (end - start); callers snapshot the
// meter at window boundaries. A parked Poller charging this meter adds its
// skipped polls lazily: busy() counts every one that has run by now.
class BusyMeter {
 public:
  void AddBusy(Time t) { busy_ += t; }
  Time busy() const { return engine_ != nullptr ? busy_ + engine_->PendingCharge(this) : busy_; }

  double Utilization(Time window_start, Time window_end) const {
    if (window_end <= window_start) {
      return 0.0;
    }
    double u = static_cast<double>(busy_) / static_cast<double>(window_end - window_start);
    return u > 1.0 ? 1.0 : u;
  }

  void Reset() { busy_ = engine_ != nullptr ? -engine_->PendingCharge(this) : 0; }

 private:
  friend class Engine;

  Time busy_ = 0;
  const Engine* engine_ = nullptr;  // set once a Poller charging it parks
};

}  // namespace sim

#endif  // SRC_SIM_CPU_H_
