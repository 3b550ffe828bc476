// Overload-protection behavior: admission shedding, deadline propagation,
// the client circuit breaker, and the overload override of the R-based
// paradigm switch. See docs/overload.md; the full open-loop degradation
// sweep lives in bench/bench_ext_overload.cc.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace rfp {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// ---- Admission control through the real RpcServer sweep ----------------------

struct ClusterCounts {
  uint64_t completed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t mismatches = 0;
};

sim::Task<void> ClosedLoopDriver(RpcClient* client, int calls, ClusterCounts* counts) {
  std::vector<std::byte> req(8, std::byte{0x5a});
  std::vector<std::byte> resp(256);
  for (int i = 0; i < calls; ++i) {
    req[0] = static_cast<std::byte>(i);
    try {
      const size_t got = co_await client->Call(1, req, resp);
      ++counts->completed;
      if (got != req.size() || std::memcmp(resp.data(), req.data(), got) != 0) {
        ++counts->mismatches;
      }
    } catch (const DeadlineExceeded&) {
      ++counts->deadline_exceeded;
    }
  }
}

TEST(OverloadTest, AdmissionControlShedsAndRequestsStillComplete) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");

  ServerOptions server_options;
  server_options.admission_control = true;
  // est-work >= one dispatch (150 ns) trips the detector: any pending
  // request beyond kAdmissionBudget is shed while another is in flight.
  server_options.overload_hi_watermark_ns = 1;
  server_options.overload_lo_watermark_ns = 0;
  RpcServer server(fabric, server_node, 1, server_options);
  server.RegisterHandler(1, [](const HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> HandlerResult {
    std::memcpy(resp.data(), req.data(), req.size());
    return HandlerResult{req.size(), sim::Micros(5)};
  });

  constexpr int kChannels = 2 * kAdmissionBudget;
  constexpr int kCallsPerChannel = 5;
  std::vector<Channel*> channels;
  std::vector<std::unique_ptr<RpcClient>> stubs;
  ClusterCounts counts;
  for (int c = 0; c < kChannels; ++c) {
    channels.push_back(server.AcceptChannel(client_node, RfpOptions{}, 0));
    stubs.push_back(std::make_unique<RpcClient>(channels.back()));
  }
  server.Start();
  for (int c = 0; c < kChannels; ++c) {
    engine.Spawn(ClosedLoopDriver(stubs[static_cast<size_t>(c)].get(), kCallsPerChannel, &counts));
  }
  engine.RunUntil(sim::Millis(50));
  server.Stop();

  // No client set a deadline, so every shed request was retried after the
  // BUSY backoff until it was admitted: nothing is lost, nothing corrupted.
  EXPECT_EQ(counts.completed, static_cast<uint64_t>(kChannels * kCallsPerChannel));
  EXPECT_EQ(counts.deadline_exceeded, 0u);
  EXPECT_EQ(counts.mismatches, 0u);

  // With twice as many channels as the sweep admits, it had to shed.
  EXPECT_GT(server.requests_shed_admission(), 0u);
  EXPECT_EQ(server.requests_shed_deadline(), 0u);
  EXPECT_GE(server.overload_enters(), 1u);

  uint64_t busy = 0;
  uint64_t shed_admission = 0;
  for (Channel* ch : channels) {
    busy += ch->stats().busy_responses;
    shed_admission += ch->stats().shed_admission;
  }
  EXPECT_EQ(busy, server.requests_shed_admission());
  EXPECT_EQ(shed_admission, server.requests_shed_admission());
}

TEST(OverloadTest, ExpiredRequestIsShedBeforeDispatch) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");

  // Deadline shedding is independent of admission_control: default server.
  RpcServer server(fabric, server_node, 1, ServerOptions{});
  server.RegisterHandler(1, [](const HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> HandlerResult {
    std::memcpy(resp.data(), req.data(), req.size());
    // Long enough that a request queued behind it expires first.
    return HandlerResult{req.size(), sim::Micros(50)};
  });

  Channel* slow = server.AcceptChannel(client_node, RfpOptions{}, 0);
  RfpOptions deadline_options;
  deadline_options.call_deadline_ns = sim::Micros(10);
  Channel* expiring = server.AcceptChannel(client_node, deadline_options, 0);
  RpcClient slow_stub(slow);
  RpcClient expiring_stub(expiring);
  server.Start();

  ClusterCounts slow_counts;
  ClusterCounts expiring_counts;
  engine.Spawn(ClosedLoopDriver(&slow_stub, 1, &slow_counts));
  engine.Spawn([](sim::Engine& eng, RpcClient* stub, ClusterCounts* counts) -> sim::Task<void> {
    // Land the second request while the first is mid-handler; its 10 us
    // deadline expires ~40 us before the sweep reaches it.
    co_await eng.Sleep(sim::Micros(2));
    co_await ClosedLoopDriver(stub, 1, counts);
  }(engine, &expiring_stub, &expiring_counts));
  engine.RunUntil(sim::Millis(5));
  server.Stop();

  EXPECT_EQ(slow_counts.completed, 1u);
  EXPECT_EQ(expiring_counts.completed, 0u);
  EXPECT_EQ(expiring_counts.deadline_exceeded, 1u);
  EXPECT_EQ(server.requests_shed_deadline(), 1u);
  EXPECT_EQ(expiring->stats().shed_deadline, 1u);
  // The client abandoned the call at its own deadline (~12 us) before the
  // server's BUSY(deadline) header was even published (~52 us), so it never
  // *observed* a busy response — the shed is booked server-side only.
  EXPECT_EQ(expiring->stats().busy_responses, 0u);
}

// ---- Client-side deadline against a dark server -------------------------------

TEST(OverloadTest, ClientDeadlineFiresWhenServerNeverAnswers) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client_node = fabric.AddNode("client");
  rdma::Node& server_node = fabric.AddNode("server");

  RfpOptions options;
  options.call_deadline_ns = sim::Micros(20);
  Channel channel(fabric, client_node, server_node, options);

  bool threw = false;
  sim::Time threw_at = 0;
  engine.Spawn([](sim::Engine& eng, Channel* ch, bool* out_threw,
                  sim::Time* out_at) -> sim::Task<void> {
    std::vector<std::byte> out(256);
    co_await ch->ClientSend(AsBytes("ping"));
    try {
      co_await ch->ClientRecv(out);
    } catch (const DeadlineExceeded&) {
      *out_threw = true;
      *out_at = eng.now();
    }
  }(engine, &channel, &threw, &threw_at));
  engine.RunUntil(sim::Millis(2));

  // Nobody ever serves the request: the fetch loop must give up at the
  // deadline instead of spinning forever (crashed-server composition).
  EXPECT_TRUE(threw);
  EXPECT_GE(threw_at, sim::Micros(20));
  EXPECT_LT(threw_at, sim::Micros(40));
}

// ---- Circuit breaker ----------------------------------------------------------

// Server actor over a raw channel: sheds the first `shed_first` requests
// with BUSY(admission), then echoes.
sim::Task<void> SheddingServer(sim::Engine& eng, Channel* ch, int shed_first, int serve,
                               uint16_t retry_after_us) {
  std::vector<std::byte> buf(1024);
  int shed = 0;
  int served = 0;
  while (served < serve) {
    size_t n = 0;
    if (ch->TryServerRecv(buf, &n)) {
      if (shed < shed_first) {
        ++shed;
        co_await ch->ServerSendBusy(BusyReason::kAdmission, retry_after_us);
      } else {
        co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
        ++served;
      }
    } else {
      co_await eng.Sleep(sim::Nanos(200));
    }
  }
}

TEST(OverloadTest, BreakerOpensOnBusyBurstAndRecloses) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client_node = fabric.AddNode("client");
  rdma::Node& server_node = fabric.AddNode("server");

  RfpOptions options;
  options.breaker_enabled = true;
  Channel channel(fabric, client_node, server_node, options);

  // Half a breaker window of sheds lands on the first call (kShed BUSYs,
  // then served). The calls after it fill the kBreakerWindow-outcome window
  // at exactly kBreakerFailureRate bad, which opens the breaker as the
  // second-to-last call completes; the last call is the half-open probe,
  // and its success closes the breaker again.
  constexpr int kShed = kBreakerWindow / 2;
  constexpr int kCalls = kBreakerWindow - kShed + 1;
  engine.Spawn(SheddingServer(engine, &channel, kShed, kCalls, /*retry_after_us=*/2));
  std::vector<Channel::BreakerState> after_call;
  engine.Spawn([](Channel* ch, std::vector<Channel::BreakerState>* states) -> sim::Task<void> {
    std::vector<std::byte> out(256);
    for (int i = 0; i < kCalls; ++i) {
      co_await ch->ClientSend(AsBytes("payload"));
      const size_t got = co_await ch->ClientRecv(out);
      EXPECT_EQ(got, 7u);
      states->push_back(ch->breaker_state());
    }
  }(&channel, &after_call));
  engine.RunUntil(sim::Millis(10));

  ASSERT_EQ(after_call.size(), static_cast<size_t>(kCalls));
  for (int i = 0; i < kCalls - 2; ++i) {
    EXPECT_EQ(after_call[static_cast<size_t>(i)], Channel::BreakerState::kClosed) << "call " << i;
  }
  EXPECT_EQ(after_call[kCalls - 2], Channel::BreakerState::kOpen);
  EXPECT_EQ(after_call[kCalls - 1], Channel::BreakerState::kClosed);
  EXPECT_EQ(channel.stats().breaker_opens, 1u);
  EXPECT_EQ(channel.stats().busy_responses, static_cast<uint64_t>(kShed));
}

TEST(OverloadTest, BusyReplyReachesForcedReplyClient) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client_node = fabric.AddNode("client");
  rdma::Node& server_node = fabric.AddNode("server");

  // Server-reply mode: the BUSY header is *pushed* to the client's landing
  // block instead of being fetched — the other half of the shed protocol.
  RfpOptions options;
  options.force_mode = RfpOptions::ForceMode::kForceReply;
  Channel channel(fabric, client_node, server_node, options);

  engine.Spawn(SheddingServer(engine, &channel, /*shed_first=*/2, /*serve=*/2,
                              /*retry_after_us=*/1));
  int completed = 0;
  engine.Spawn([](Channel* ch, int* done) -> sim::Task<void> {
    std::vector<std::byte> out(256);
    for (int i = 0; i < 2; ++i) {
      co_await ch->ClientSend(AsBytes("payload"));
      const size_t got = co_await ch->ClientRecv(out);
      EXPECT_EQ(got, 7u);
      ++*done;
    }
  }(&channel, &completed));
  engine.RunUntil(sim::Millis(10));

  EXPECT_EQ(completed, 2);
  EXPECT_EQ(channel.stats().busy_responses, 2u);
  EXPECT_EQ(channel.stats().reply_pushes, 2u + 2u);  // 2 BUSY headers + 2 results
}

// ---- Overload override of the R-based switch ----------------------------------

// One BUSY, then kServe slow echoes (the shed call's re-issue first) whose
// process time exceeds the fetch retry budget — the classic
// switch-to-reply trigger. Returns switches_to_reply after each call.
constexpr int kServe = kOverloadOverrideCalls + 2;

std::vector<uint64_t> SwitchesAfterBusyThenSlow() {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client_node = fabric.AddNode("client");
  rdma::Node& server_node = fabric.AddNode("server");
  Channel channel(fabric, client_node, server_node, RfpOptions{});

  engine.Spawn([](sim::Engine& eng, Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> buf(1024);
    int shed = 1;
    int served = 0;
    while (served < kServe) {
      if (ch->NeedsReplyResend()) {
        co_await ch->MaybeResendAfterSwitch();
      }
      size_t n = 0;
      if (ch->TryServerRecv(buf, &n)) {
        if (shed > 0) {
          --shed;
          co_await ch->ServerSendBusy(BusyReason::kAdmission, 1);
        } else {
          co_await eng.Sleep(sim::Micros(15));  // slow: many failed fetches
          co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
          ++served;
        }
      } else {
        co_await eng.Sleep(sim::Nanos(200));
      }
    }
  }(engine, &channel));
  std::vector<uint64_t> switches;
  engine.Spawn([](Channel* ch, std::vector<uint64_t>* out) -> sim::Task<void> {
    std::vector<std::byte> resp(256);
    for (int i = 0; i < kServe; ++i) {
      co_await ch->ClientSend(AsBytes("x"));
      co_await ch->ClientRecv(resp);
      out->push_back(ch->stats().switches_to_reply);
    }
  }(&channel, &switches));
  engine.RunUntil(sim::Millis(20));
  return switches;
}

TEST(OverloadTest, BusyResponseSuppressesSwitchToReply) {
  const std::vector<uint64_t> switches = SwitchesAfterBusyThenSlow();
  ASSERT_EQ(switches.size(), static_cast<size_t>(kServe));
  // Override: the BUSY pins remote fetching for the next
  // kOverloadOverrideCalls calls — these slow calls never switch, sparing
  // the server the out-bound WRITE per response exactly while it is
  // saturated.
  for (int i = 0; i < kOverloadOverrideCalls; ++i) {
    EXPECT_EQ(switches[static_cast<size_t>(i)], 0u) << "call " << i;
  }
  // Control: once the override expires, two slow calls trip the hysteresis
  // and the channel falls back to server-reply.
  EXPECT_EQ(switches.back(), 1u);
}

// ---- Graceful degradation (mini version of bench_ext_overload) ----------------

struct MiniOutcome {
  uint64_t completed = 0;
  uint64_t shed = 0;
  sim::Time max_latency = 0;  // scheduled arrival -> completion
  uint64_t served = 0;
  uint64_t shed_server = 0;
};

// Open-loop driver as in the bench: fixed arrival schedule, latency charged
// from the scheduled arrival, dead-on-arrival requests shed client-side
// when a deadline is configured.
sim::Task<void> OpenLoopDriver(sim::Engine& eng, RpcClient* client, sim::Time interarrival,
                               sim::Time first, sim::Time deadline, sim::Time until,
                               MiniOutcome* out) {
  std::vector<std::byte> req(8, std::byte{0x42});
  std::vector<std::byte> resp(256);
  sim::Time scheduled = first;
  while (scheduled < until) {
    if (eng.now() < scheduled) {
      co_await eng.Sleep(scheduled - eng.now());
    }
    if (deadline > 0 && eng.now() >= scheduled + deadline) {
      ++out->shed;
      scheduled += interarrival;
      continue;
    }
    try {
      co_await client->Call(1, req, resp);
      ++out->completed;
      if (eng.now() - scheduled > out->max_latency) {
        out->max_latency = eng.now() - scheduled;
      }
    } catch (const DeadlineExceeded&) {
      ++out->shed;
    }
    scheduled += interarrival;
  }
}

MiniOutcome RunMiniOverload(bool protect, uint64_t seed) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = seed;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");

  ServerOptions server_options;
  server_options.admission_control = protect;
  if (protect) {
    server_options.overload_hi_watermark_ns = sim::Micros(15);
    server_options.overload_lo_watermark_ns = sim::Micros(5);
  }
  RpcServer server(fabric, server_node, 1, server_options);
  server.RegisterHandler(1, [](const HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> HandlerResult {
    std::memcpy(resp.data(), req.data(), req.size());
    return HandlerResult{req.size(), sim::Micros(10)};
  });

  RfpOptions options;
  if (protect) {
    options.call_deadline_ns = sim::Micros(150);
    options.breaker_enabled = true;
  }

  constexpr int kChannels = 8;
  // ~0.095 Mops capacity (10 us process + dispatch), ~0.28 Mops offered.
  const sim::Time interarrival = sim::Micros(28);
  const sim::Time until = sim::Millis(20);
  std::vector<std::unique_ptr<RpcClient>> stubs;
  std::vector<MiniOutcome> outs(kChannels);
  for (int c = 0; c < kChannels; ++c) {
    stubs.push_back(std::make_unique<RpcClient>(server.AcceptChannel(client_node, options, 0)));
  }
  server.Start();
  for (int c = 0; c < kChannels; ++c) {
    engine.Spawn(OpenLoopDriver(engine, stubs[static_cast<size_t>(c)].get(), interarrival,
                                interarrival * c / kChannels, options.call_deadline_ns, until,
                                &outs[static_cast<size_t>(c)]));
  }
  engine.RunUntil(until);
  server.Stop();

  MiniOutcome total;
  for (const MiniOutcome& o : outs) {
    total.completed += o.completed;
    total.shed += o.shed;
    if (o.max_latency > total.max_latency) {
      total.max_latency = o.max_latency;
    }
  }
  total.served = server.requests_served();
  total.shed_server = server.requests_shed_admission() + server.requests_shed_deadline();
  return total;
}

TEST(OverloadTest, GracefulDegradationAtThreeTimesSaturation) {
  const MiniOutcome protected_run = RunMiniOverload(/*protect=*/true, /*seed=*/13);
  const MiniOutcome unprotected_run = RunMiniOverload(/*protect=*/false, /*seed=*/13);

  // Both keep the server busy: the protected run serves within 15% of the
  // unprotected one (shedding costs a little capacity, never most of it).
  EXPECT_GT(protected_run.completed, 0u);
  EXPECT_GE(static_cast<double>(protected_run.completed),
            0.85 * static_cast<double>(unprotected_run.completed));

  // The protected run sheds the excess explicitly and bounds the latency of
  // what it admits (deadline + one service time + issue slack)...
  EXPECT_GT(protected_run.shed, 0u);
  EXPECT_LT(protected_run.max_latency, sim::Micros(400));
  // ...while the unprotected run sheds nothing and lets queueing delay grow
  // toward the length of the run.
  EXPECT_EQ(unprotected_run.shed, 0u);
  EXPECT_EQ(unprotected_run.shed_server, 0u);
  EXPECT_GT(unprotected_run.max_latency, sim::Millis(1));
}

TEST(OverloadTest, OverloadRunsAreDeterministic) {
  const MiniOutcome a = RunMiniOverload(/*protect=*/true, /*seed=*/99);
  const MiniOutcome b = RunMiniOverload(/*protect=*/true, /*seed=*/99);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.shed_server, b.shed_server);
}

}  // namespace
}  // namespace rfp
