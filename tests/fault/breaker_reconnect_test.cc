// Composition: circuit breaker x crash-driven fetch timeouts x QP-error
// reconnect while the breaker is open.
//
// The half-open verdict must come from the half-open probe. A call that was
// already in flight when the breaker opened (stuck retrying, possibly across
// a reconnect) can deliver its own timeout verdict right after the breaker
// goes half-open; counting that stale verdict re-opens the breaker a second
// time for the same outage — breaker_opens double-counts the episode and the
// real probe's success is then ignored, extending the outage onto a healthy
// server. These tests pin the fixed accounting: one outage, one breaker
// open, and the probe's verdict decides.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace fault {
namespace {

constexpr uint32_t kResponseBytes = 16;

// Collects instant events so the test can line up breaker transitions
// against fetch timeouts and reconnects in virtual time.
class InstantLog : public sim::TraceSink {
 public:
  void Span(std::string_view, std::string_view, uint64_t, sim::Time, sim::Time) override {}
  void NameTrack(uint64_t, std::string_view) override {}
  void Instant(std::string_view, std::string_view name, uint64_t, sim::Time at) override {
    events_.emplace_back(std::string(name), at);
  }

  size_t Count(std::string_view name) const {
    size_t n = 0;
    for (const auto& [ev, _] : events_) {
      if (ev == name) {
        ++n;
      }
    }
    return n;
  }

  const std::vector<std::pair<std::string, sim::Time>>& events() const { return events_; }

 private:
  std::vector<std::pair<std::string, sim::Time>> events_;
};

struct RunResult {
  uint64_t breaker_opens = 0;
  uint64_t reconnects = 0;
  uint64_t fetch_timeouts = 0;
  int completed = 0;
  int abandoned = 0;
  rfp::Channel::BreakerState final_state = rfp::Channel::BreakerState::kClosed;
  sim::Time second_call_latency = 0;
  sim::Time final_time = 0;
  size_t half_opens = 0;
  size_t breaker_closes = 0;

  bool operator==(const RunResult&) const = default;
};

// One channel (window 5: the in-flight calls plus the probe; forced
// remote-fetch so timeouts reissue instead of switching), one server thread,
// breaker enabled. kInFlight calls are submitted just after the crash: each
// fetch timeout is one bad outcome, so four timeouts of each fill the
// kBreakerWindow-outcome window and open the breaker. Call A spends the
// whole outage retrying, and its QP gets shot while the breaker is open, so
// it crosses a reconnect; its companions give up at their call deadline
// before that, so no other call posts on the pair while it is replaced.
// Call B arrives while the breaker is open, waits out the interval, and
// becomes the half-open probe against a server that has recovered by then.
constexpr int kInFlight = 4;
static_assert(kInFlight * 4 == rfp::kBreakerWindow);

RunResult RunScenario(sim::Time crash_end, bool print_events) {
  sim::Engine engine;
  InstantLog log;
  engine.set_trace_sink(&log);
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");

  rfp::RpcServer server(fabric, server_node, /*threads=*/1);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte>,
                               std::span<std::byte> resp) -> rfp::HandlerResult {
    for (size_t i = 0; i < kResponseBytes; ++i) {
      resp[i] = std::byte{0x5a};
    }
    return rfp::HandlerResult{kResponseBytes, sim::Micros(1)};
  });

  rfp::RfpOptions options;
  options.window = kInFlight + 1;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  options.fetch_timeout_ns = sim::Micros(10);
  options.breaker_enabled = true;
  rfp::Channel* channel = server.AcceptChannel(client_node, options, 0);
  server.Start();

  FaultInjector injector(fabric);
  injector.BindServer(server_node.id(), &server);
  FaultPlan plan;
  plan.ServerCrash(sim::Micros(2), server_node.id(), /*thread=*/0, crash_end - sim::Micros(2));
  plan.QpError(sim::Micros(74), server_node.id(), client_node.id());
  injector.Arm(plan);

  RunResult out;
  for (int a = 0; a < kInFlight; ++a) {
    // Call A (a == 0) is in flight across the whole outage and the QP error.
    // Its companions carry a call deadline: their timeouts help fill the
    // breaker window, then they give up, before the QP error.
    const rfp::CallOptions call_options{.deadline_ns = a == 0 ? 0 : sim::Micros(57)};
    engine.Spawn([](sim::Engine& eng, rfp::Channel* ch, rfp::CallOptions call_opts,
                    RunResult* res) -> sim::Task<void> {
      rfp::RpcClient client(ch);
      std::vector<std::byte> req(8, std::byte{0x11});
      std::vector<std::byte> resp(64);
      co_await eng.Sleep(sim::Micros(5));
      const auto call = co_await client.SubmitCall(1, req, call_opts);
      try {
        if (co_await client.AwaitCall(call, resp) == kResponseBytes) {
          ++res->completed;
        }
      } catch (const rfp::DeadlineExceeded&) {
        ++res->abandoned;
      }
    }(engine, channel, call_options, &out));
  }
  engine.Spawn([](sim::Engine& eng, rfp::Channel* ch, RunResult* res) -> sim::Task<void> {
    rfp::RpcClient client(ch);
    std::vector<std::byte> req(8, std::byte{0x22});
    std::vector<std::byte> resp(64);
    // Call B: arrives while the breaker is open, becomes the probe.
    co_await eng.Sleep(sim::Micros(75));
    if (co_await client.Call(1, req, resp) == kResponseBytes) {
      ++res->completed;
    }
    // Call B2: a healthy server should serve this promptly; a spuriously
    // re-opened breaker stalls it for another open interval.
    const sim::Time start = eng.now();
    if (co_await client.Call(1, req, resp) == kResponseBytes) {
      ++res->completed;
    }
    res->second_call_latency = eng.now() - start;
  }(engine, channel, &out));

  engine.RunUntil(sim::Millis(2));
  server.Stop();

  out.breaker_opens = channel->stats().breaker_opens;
  out.reconnects = channel->stats().reconnects;
  out.fetch_timeouts = channel->stats().fetch_timeouts;
  out.final_state = channel->breaker_state();
  out.final_time = engine.now();
  out.half_opens = log.Count("breaker_half_open");
  out.breaker_closes = log.Count("breaker_close");
  if (print_events) {
    for (const auto& [name, at] : log.events()) {
      printf("%8lld  %s\n", static_cast<long long>(at), name.c_str());
    }
  }
  return out;
}

// The pinned timeline (deterministic; timings measured from the trace): the
// calls' 16th fetch timeout opens the breaker at ~61us and the companions
// give up at ~62us; the QP error at 74us sends A through a reconnect; B
// (arrived at 75us) goes half-open at ~106us and probes; A's next stale
// timeout verdict lands at ~108us — before the probe resolves — and the
// server restarts at 109us, so the probe succeeds at ~113us. Counting the
// stale verdict re-opens the breaker at ~108us (breaker_opens = 2 for one
// outage) and discards the probe's success, stalling B's next call for a
// whole extra open interval (~50us) against a healthy server.
TEST(BreakerReconnectCompositionTest, StaleVerdictDoesNotReopenBreaker) {
  const RunResult r = RunScenario(/*crash_end=*/sim::Micros(109), /*print_events=*/false);
  EXPECT_EQ(r.completed, 3);
  EXPECT_EQ(r.abandoned, kInFlight - 1);
  // One outage, one open: the stale in-flight call's verdict is not the
  // probe's, so the episode is counted once.
  EXPECT_EQ(r.breaker_opens, 1u);
  EXPECT_EQ(r.half_opens, 1u);
  EXPECT_EQ(r.breaker_closes, 1u);
  EXPECT_EQ(r.final_state, rfp::Channel::BreakerState::kClosed);
  // The QP error mid-outage produced exactly one reconnect.
  EXPECT_EQ(r.reconnects, 1u);
  // The call after the probe ran against a healthy server with a closed
  // breaker; a spurious re-open would stall it ~50us.
  EXPECT_LT(r.second_call_latency, sim::Micros(10));
}

// The same composition where the server recovers before the half-open flip:
// the probe finds it healthy immediately and the accounting is identical.
TEST(BreakerReconnectCompositionTest, EarlyRecoveryAlsoCountsOneOpen) {
  const RunResult r = RunScenario(/*crash_end=*/sim::Micros(100), /*print_events=*/false);
  EXPECT_EQ(r.completed, 3);
  EXPECT_EQ(r.abandoned, kInFlight - 1);
  EXPECT_EQ(r.breaker_opens, 1u);
  EXPECT_EQ(r.breaker_closes, 1u);
  EXPECT_EQ(r.final_state, rfp::Channel::BreakerState::kClosed);
  EXPECT_EQ(r.reconnects, 1u);
}

// Breaker accounting across crash + reconnect is deterministic: identical
// runs produce identical counters and virtual times.
TEST(BreakerReconnectCompositionTest, CompositionIsDeterministic) {
  const RunResult a = RunScenario(/*crash_end=*/sim::Micros(109), /*print_events=*/false);
  const RunResult b = RunScenario(/*crash_end=*/sim::Micros(109), /*print_events=*/false);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace fault
