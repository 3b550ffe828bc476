// Host-work counters for the benchmark workloads (see README.md).
//
//   hostwork --workload NAME --seed N --seconds S
//
// Runs one replica of a perfbench workload (perfbench's first: same
// sub-seed, same 2 ms warm-up) and counts the host work its measure window
// costs, per call completed correctly in that window:
//
//   dispatches_per_call   events the engine really ran (Engine::dispatches)
//   frames_per_call       coroutine frames drawn from sim::internal::FramePool
//   allocs_per_call       global operator new calls
//   alloc_bytes_per_call  bytes those calls asked for
//
// Every count depends only on (workload, seed, seconds) and the code, so a
// change in one is a change in the work, never host noise. The window is a
// tenth of the virtual time `--seconds` buys perfbench.
//
// The replica runs twice on identical clusters: the first pass only learns
// how many calls each client completes in the window, so the second, counted
// pass can size perfbench's per-client latency vectors up front and their
// growth is not counted as the library's.
//
// Prints one JSON line: {"hostwork": {...}}.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/sim/frame_pool.h"
#include "src/sim/random.h"

namespace {

uint64_t g_news = 0;
uint64_t g_new_bytes = 0;

}  // namespace

void* operator new(std::size_t bytes) {
  ++g_news;
  g_new_bytes += bytes;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*bytes*/) noexcept { std::free(p); }

namespace {

const sim::Time kWarmup = sim::Millis(2);
constexpr int64_t kWindowDivisor = 10;

struct Counters {
  uint64_t dispatches = 0;
  uint64_t frames = 0;
  uint64_t news = 0;
  uint64_t new_bytes = 0;
};

Counters Read(const perfbench::Cluster& c) {
  return Counters{c.engine.dispatches(), sim::internal::FramePool::drawn(), g_news, g_new_bytes};
}

// Runs `c` through its measure window; returns the counters at the window's
// start and end.
std::pair<Counters, Counters> Run(perfbench::Cluster& c) {
  perfbench::StartCluster(c);
  c.engine.RunUntil(c.params.warmup_end);
  const Counters a = Read(c);
  c.engine.RunUntil(c.params.end);
  const Counters b = Read(c);
  c.rpc().Stop();
  return {a, b};
}

double PerCall(uint64_t after, uint64_t before, uint64_t calls) {
  return calls == 0 ? 0.0 : static_cast<double>(after - before) / static_cast<double>(calls);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ClusterParams p;
  double seconds = 0;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      have_workload = perfbench::ParseWorkload(argv[i + 1], &p.workload);
    } else if (flag == "--seed") {
      p.seed = std::strtoull(argv[i + 1], nullptr, 0);
    } else if (flag == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else {
      have_workload = false;
      break;
    }
  }
  if (!have_workload || argc % 2 != 1 || !(seconds > 0)) {
    std::fprintf(stderr, "usage: hostwork --workload NAME --seed N --seconds S\n");
    return 2;
  }
  const uint64_t seed = p.seed;
  p.seed = sim::Mix64(seed);  // perfbench's replica 0
  const double per_second = static_cast<double>(perfbench::VirtualPerWallSecond(p.workload));
  p.warmup_end = kWarmup;
  p.end = kWarmup + static_cast<sim::Time>(seconds * per_second) / kWindowDivisor;

  perfbench::SetupTimes setup;
  std::vector<size_t> window_calls;
  {
    std::unique_ptr<perfbench::Cluster> sizing = perfbench::BuildCluster(p, &setup);
    Run(*sizing);
    for (const perfbench::CallTally& t : sizing->tallies) {
      window_calls.push_back(t.window_latency_ns.size());
    }
  }
  std::unique_ptr<perfbench::Cluster> c = perfbench::BuildCluster(p, &setup);
  for (size_t i = 0; i < c->tallies.size(); ++i) {
    c->tallies[i].window_latency_ns.reserve(window_calls[i]);
  }
  const auto [a, b] = Run(*c);
  uint64_t calls = 0;
  for (const perfbench::CallTally& t : c->tallies) {
    calls += t.window_latency_ns.size();
  }

  std::printf(
      "{\"hostwork\": {\"workload\": \"%s\", \"seed\": %llu, \"window_calls\": %llu, "
      "\"dispatches_per_call\": %.6f, \"frames_per_call\": %.6f, \"allocs_per_call\": %.6f, "
      "\"alloc_bytes_per_call\": %.6f}}\n",
      perfbench::WorkloadName(p.workload), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(calls), PerCall(b.dispatches, a.dispatches, calls),
      PerCall(b.frames, a.frames, calls), PerCall(b.news, a.news, calls),
      PerCall(b.new_bytes, a.new_bytes, calls));
  return 0;
}
