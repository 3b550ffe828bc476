// Eviction-under-load composition suite (docs/connections.md): cache
// eviction deliberately fired while other machinery is mid-flight, under the
// 12-schedule explorer budget with the strict checker attached. Detaching a
// pinned victim must look exactly like a fault-injected connection loss —
// every composed protocol (pipelined windows, the circuit breaker's
// half-open probe, failover redirect retries) already survives those, so it
// must survive eviction too:
//
//   * pipelined — a window of in-flight calls crosses a detach; every call
//     completes via reconnect + idempotent re-issue;
//   * breaker — the victim is evicted while the breaker is OPEN; the
//     half-open probe crosses the re-established channel and closes it;
//   * failover — evictions racing the PR-9 primary kill; the linearizability
//     oracle still proves zero lost acked PUTs.

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/conn/connector.h"
#include "src/explore/explorer.h"
#include "src/explore/history.h"
#include "src/fault/injector.h"
#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/repl/cluster.h"
#include "src/rfp/channel.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/schedule.h"
#include "src/sim/time.h"

namespace conn {
namespace {

using explore::Outcome;
using explore::ScenarioRun;

constexpr uint16_t kEcho = 1;

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

std::string ToString(std::span<const std::byte> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

std::string TraceOf(sim::Engine& engine) {
  return engine.schedule_policy() != nullptr
             ? sim::FormatDecisionTrace(engine.schedule_policy()->choices())
             : std::string();
}

explore::Options Budget(const std::string& label) {
  explore::Options options;
  options.max_schedules = 12;  // the CI budget, same as the corpus
  options.exhaustive_share_pct = 50;
  options.seed = 1;
  options.label = label;
  return options;
}

void ExpectCleanUnderBudget(const explore::Scenario& scenario, const std::string& label) {
  explore::Report report = explore::Explorer(Budget(label)).Run(scenario);
  EXPECT_FALSE(report.failed) << report.failure_message;
  EXPECT_EQ(report.violations, 0u);
}

void RegisterEcho(rfp::RpcServer& server) {
  server.RegisterHandler(kEcho, [](const rfp::HandlerContext&,
                                   std::span<const std::byte> req,
                                   std::span<std::byte> resp) {
    std::memcpy(resp.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), sim::Nanos(300)};
  });
}

// ---- 1. Eviction with a window of in-flight pipelined calls -----------------

// Eight calls are submitted into a window-8 channel; with four still
// outstanding the cache detaches the (pinned) victim. The remaining awaits
// must complete through reconnect + re-issue, and a follow-up call over the
// doomed-but-leased channel must transparently re-establish.
Outcome PipelinedEvictionScenario(ScenarioRun& run) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine& eng = run.engine;
  rdma::Fabric fabric(eng);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  rfp::RpcServer server(fabric, server_node, 1);
  RegisterEcho(server);
  server.Start();

  ConnectorOptions copts;
  copts.mode = ConnectorOptions::Mode::kCached;
  Connector connector(copts);

  rfp::RfpOptions options;
  options.window = 8;
  options.fetch_timeout_ns = sim::Micros(50);
  options.fetch_backoff_initial_ns = sim::Micros(2);

  std::string failure;
  bool done = false;
  eng.Spawn([](Connector* conn, rfp::RpcServer* srv, rdma::Node* node,
               rfp::RfpOptions opts, std::string* error, bool* finished) -> sim::Task<void> {
    try {
      ChannelLease lease = conn->Lease(*srv, *node, opts, 0);
      std::vector<rfp::Channel::CallHandle> handles;
      std::vector<std::string> payloads;
      for (int i = 0; i < 8; ++i) {
        payloads.push_back("call-" + std::to_string(i));
        handles.push_back(co_await lease.stub()->SubmitCall(
            kEcho, std::as_bytes(std::span(payloads[static_cast<size_t>(i)].data(),
                                           payloads[static_cast<size_t>(i)].size()))));
      }
      std::vector<std::byte> resp(64);
      for (int i = 0; i < 4; ++i) {
        const size_t n = co_await lease.stub()->AwaitCall(handles[static_cast<size_t>(i)], resp);
        if (ToString({resp.data(), n}) != payloads[static_cast<size_t>(i)]) {
          *error = "early await " + std::to_string(i) + " returned wrong payload";
        }
      }
      // Four calls still outstanding: detach the pinned victim under them.
      conn->cache()->Evict(*srv, *node, 0);
      for (int i = 4; i < 8; ++i) {
        const size_t n = co_await lease.stub()->AwaitCall(handles[static_cast<size_t>(i)], resp);
        if (ToString({resp.data(), n}) != payloads[static_cast<size_t>(i)]) {
          *error = "post-evict await " + std::to_string(i) + " returned wrong payload";
        }
      }
      // A fresh call over the doomed-but-leased channel must reconnect.
      const std::string probe = "after-evict";
      const size_t n = co_await lease.stub()->Call(
          kEcho, std::as_bytes(std::span(probe.data(), probe.size())), resp);
      if (ToString({resp.data(), n}) != probe) {
        *error = "post-evict call returned wrong payload";
      }
      if (lease.channel()->stats().reconnects < 1) {
        *error = "detached channel never reconnected";
      }
    } catch (const std::exception& e) {
      *error = e.what();
    }
    *finished = true;
  }(&connector, &server, &client_node, options, &failure, &done));

  eng.RunUntil(sim::Millis(20));
  server.Stop();
  if (!done) {
    return Outcome::Fail("pipelined client wedged across the eviction");
  }
  if (!failure.empty()) {
    return Outcome::Fail(failure);
  }
  if (connector.cache()->stats().detach_evictions != 1) {
    return Outcome::Fail("expected exactly one detach eviction");
  }
  return Outcome::Pass(9);
}

TEST(EvictionCompositionTest, PipelinedWindowSurvivesEviction) {
  ExpectCleanUnderBudget(&PipelinedEvictionScenario, "conn_evict_pipelined");
}

// ---- 2. Eviction with the circuit breaker open / half-open ------------------

// The shedding-server recipe from tests/rfp/overload_test.cc trips the
// breaker; while the caller is sleeping out the open interval the cache
// detaches the channel. The half-open probe therefore crosses the
// detached-then-re-established channel — success must still close the
// breaker.
Outcome BreakerEvictionScenario(ScenarioRun& run) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine& eng = run.engine;
  rdma::Fabric fabric(eng);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  // The server is never Start()ed: a manual shedding actor owns the channel
  // (the overload_test recipe), while AcceptChannel still registers it so
  // the cache can lease and close it.
  rfp::RpcServer server(fabric, server_node, 1);

  ConnectorOptions copts;
  copts.mode = ConnectorOptions::Mode::kCached;
  Connector connector(copts);

  rfp::RfpOptions options;
  options.breaker_enabled = true;
  options.fetch_timeout_ns = sim::Micros(50);
  options.fetch_backoff_initial_ns = sim::Micros(2);

  ChannelLease lease = connector.Lease(server, client_node, options, 0);
  rfp::Channel* channel = lease.channel();

  // Half a breaker window of sheds on the first call, then serves: the
  // next calls fill the window at kBreakerFailureRate bad, which opens the
  // breaker; the last call is the half-open probe and closes it again.
  constexpr int kShed = rfp::kBreakerWindow / 2;
  constexpr int kCalls = rfp::kBreakerWindow - kShed + 1;
  eng.Spawn([](sim::Engine& engine, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> buf(1024);
    int shed = 0;
    int served = 0;
    while (served < kCalls) {
      size_t n = 0;
      if (ch->TryServerRecv(buf, &n)) {
        if (shed < kShed) {
          ++shed;
          co_await ch->ServerSendBusy(rfp::BusyReason::kAdmission, /*retry_after_us=*/2);
        } else {
          co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
          ++served;
        }
      } else {
        co_await engine.Sleep(sim::Nanos(200));
      }
    }
  }(eng, channel));

  // Detach the victim as soon as the breaker opens, while the last call
  // sleeps out the open interval before its half-open probe.
  eng.Spawn([](sim::Engine& engine, Connector* conn, rfp::RpcServer* srv, rdma::Node* node,
               rfp::Channel* ch) -> sim::Task<void> {
    while (ch->breaker_state() != rfp::Channel::BreakerState::kOpen) {
      co_await engine.Sleep(sim::Micros(1));
    }
    conn->cache()->Evict(*srv, *node, 0);
  }(eng, &connector, &server, &client_node, channel));

  // Raw channel calls (the shedding actor echoes unframed payloads): each
  // ClientRecv absorbs BUSY retries, breaker sleeps, and — after the evictor
  // fires — the reconnect of the detached channel.
  int completed = 0;
  std::string failure;
  eng.Spawn([](rfp::Channel* ch, int* done, std::string* error) -> sim::Task<void> {
    std::vector<std::byte> out(256);
    try {
      for (int i = 0; i < kCalls; ++i) {
        const std::string msg = "payload";
        co_await ch->ClientSend(std::as_bytes(std::span(msg.data(), msg.size())));
        const size_t n = co_await ch->ClientRecv(out);
        if (n != msg.size()) {
          *error = "echo size mismatch";
        }
        ++*done;
      }
    } catch (const std::exception& e) {
      *error = e.what();
    }
  }(channel, &completed, &failure));

  eng.RunUntil(sim::Millis(20));
  if (!failure.empty()) {
    return Outcome::Fail(failure);
  }
  if (completed != kCalls) {
    return Outcome::Fail("completed " + std::to_string(completed) + "/" +
                         std::to_string(kCalls) + " calls");
  }
  if (channel->stats().breaker_opens < 1) {
    return Outcome::Fail("breaker never opened under the BUSY burst");
  }
  if (channel->breaker_state() != rfp::Channel::BreakerState::kClosed) {
    return Outcome::Fail("breaker did not re-close after the half-open probe");
  }
  if (channel->stats().reconnects < 1) {
    return Outcome::Fail("eviction never detached the channel mid-episode");
  }
  if (connector.cache()->stats().detach_evictions != 1) {
    return Outcome::Fail("expected exactly one detach eviction");
  }
  return Outcome::Pass(static_cast<uint64_t>(completed));
}

TEST(EvictionCompositionTest, BreakerHalfOpenProbeCrossesEviction) {
  ExpectCleanUnderBudget(&BreakerEvictionScenario, "conn_evict_breaker");
}

// ---- 3. Eviction racing the PR-9 failover redirect --------------------------

repl::ClusterConfig FastConfig() {
  repl::ClusterConfig config = repl::DefaultClusterConfig();
  config.kv.server_threads = 2;
  config.kv.buckets_per_partition = 256;
  config.repl.lease_interval_ns = sim::Micros(150);
  config.repl.probe_interval_ns = sim::Micros(20);
  config.repl.channel.fetch_timeout_ns = sim::Micros(50);
  return config;
}

// KillPrimaryScenario from tests/repl/failover_test.cc, with the client's
// endpoints resolved through a cached connector and an evictor sweeping all
// four cache keys while the kill, the promotion, and the redirect retries
// are in flight. Acked-PUT durability must be unaffected.
Outcome FailoverEvictionScenario(ScenarioRun& run) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine& eng = run.engine;
  rdma::Fabric fabric(eng);
  repl::Cluster cluster(fabric, FastConfig());
  rdma::Node& client_node = fabric.AddNode("client");

  ConnectorOptions copts;
  copts.mode = ConnectorOptions::Mode::kCached;
  Connector connector(copts);
  repl::Client client(cluster, client_node, connector);
  explore::HistoryRecorder rec;
  client.set_history_recorder(&rec);
  cluster.Start();

  fault::FaultInjector injector(fabric);
  injector.BindServer(cluster.primary().node().id(), &cluster.primary().rpc());
  fault::FaultPlan plan;
  plan.ServerCrashAll(sim::Micros(350), cluster.primary().node().id(), sim::Millis(20));
  injector.Arm(plan);

  // Sweep evictions across both servers' keys at 300/450/600us — before the
  // kill, during the failover window, and after the promotion.
  eng.Spawn([](sim::Engine& engine, Connector* conn, repl::Cluster* cl,
               rdma::Node* node) -> sim::Task<void> {
    for (const sim::Time at : {sim::Micros(300), sim::Micros(450), sim::Micros(600)}) {
      while (engine.now() < at) {
        co_await engine.Sleep(at - engine.now());
      }
      for (int thread = 0; thread < 2; ++thread) {
        conn->cache()->Evict(cl->primary().rpc(), *node, thread);
        conn->cache()->Evict(cl->backup().rpc(), *node, thread);
      }
    }
  }(eng, &connector, &cluster, &client_node));

  std::string failure;
  bool done = false;
  eng.Spawn([](sim::Engine& engine, repl::Client* c, std::string* error,
               bool* finished) -> sim::Task<void> {
    const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
    std::map<std::string, std::string> acked;
    try {
      for (int round = 0; round < 6; ++round) {
        for (const std::string& key : keys) {
          const std::string value = "r" + std::to_string(round);
          if (co_await c->Put(Bytes(key), Bytes(value))) {
            acked[key] = value;
          }
        }
        co_await engine.Sleep(sim::Micros(100));
      }
      std::vector<std::byte> buf(256);
      for (const std::string& key : keys) {
        auto got = co_await c->Get(Bytes(key), buf);
        if (!got.has_value()) {
          *error = "acked key '" + key + "' lost across failover + eviction";
          break;
        }
        const std::string value = ToString({buf.data(), *got});
        if (value != acked[key]) {
          *error = "key '" + key + "': acked '" + acked[key] + "' but read '" + value + "'";
          break;
        }
      }
    } catch (const std::exception& e) {
      *error = e.what();
    }
    *finished = true;
  }(eng, &client, &failure, &done));

  eng.RunUntil(sim::Millis(8));
  cluster.Stop();
  if (!done) {
    return Outcome::Fail("client actor wedged");
  }
  if (!failure.empty()) {
    return Outcome::Fail(failure);
  }
  if (cluster.coordinator().promotions() != 1) {
    return Outcome::Fail("expected exactly one promotion, saw " +
                         std::to_string(cluster.coordinator().promotions()));
  }
  if (connector.cache()->stats().detach_evictions < 1) {
    return Outcome::Fail("no eviction ever landed on a pinned endpoint");
  }
  rec.CheckStrict(TraceOf(eng));  // zero lost acked PUTs, oracle-verified
  return Outcome::Pass(rec.completed_ops());
}

TEST(EvictionCompositionTest, FailoverRedirectSurvivesEvictionSweeps) {
  ExpectCleanUnderBudget(&FailoverEvictionScenario, "conn_evict_failover");
}

}  // namespace
}  // namespace conn
