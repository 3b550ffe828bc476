#include "src/explore/corpus.h"

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/check/checker.h"
#include "src/explore/history.h"
#include "src/fault/injector.h"
#include "src/kv/bucket_table.h"
#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/repl/cluster.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/schedule.h"
#include "src/sim/time.h"

namespace explore {
namespace corpus {
namespace {

constexpr uint16_t kKvGet = 1;
constexpr uint16_t kKvPut = 2;
constexpr uint16_t kEcho = 3;

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

std::string ToString(std::span<const std::byte> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

// The schedule trace recorded so far on this run's engine, for attaching to
// strict-mode failures.
std::string TraceOf(sim::Engine& engine) {
  return engine.schedule_policy() != nullptr
             ? sim::FormatDecisionTrace(engine.schedule_policy()->choices())
             : std::string();
}

}  // namespace

// Mini-KV over RPC, fetch paradigm, one server thread, BucketTable store and
// a HistoryRecorder judging the client-visible history. Client A's first GET
// is abandoned on its deadline while the server is still computing; the
// server's (now stale) response lands in A's block anyway. Client B then
// completes a PUT of a new value, and A issues a second GET. The real seq
// filter discards the stale response and waits for the re-executed one; the
// mutant accepts the late duplicate, so the second GET returns a value that
// a PUT completed before its invocation had overwritten — exactly the
// violation Wing & Gong rejects.
Scenario LateDuplicateScenario(bool mutant) {
  return [mutant](ScenarioRun& run) -> Outcome {
    sim::Engine& eng = run.engine;
    rdma::Fabric fabric(eng);
    rdma::Node& server_node = fabric.AddNode("server");
    kv::BucketTable table(64);
    HistoryRecorder rec;
    table.set_history_recorder(&rec);

    rfp::RpcServer server(fabric, server_node, 1);
    server.RegisterHandler(
        kKvGet, [&table](const rfp::HandlerContext&, std::span<const std::byte> req,
                         std::span<std::byte> resp) {
          auto value = table.Get(req);
          resp[0] = std::byte{value.has_value() ? uint8_t{1} : uint8_t{0}};
          size_t n = 0;
          if (value.has_value()) {
            n = value->size();
            std::memcpy(resp.data() + 1, value->data(), n);
          }
          return rfp::HandlerResult{1 + n, sim::Micros(60)};
        });
    server.RegisterHandler(
        kKvPut, [&table](const rfp::HandlerContext&, std::span<const std::byte> req,
                         std::span<std::byte> resp) {
          const size_t klen = std::to_integer<size_t>(req[0]);
          table.Put(req.subspan(1, klen), req.subspan(1 + klen));
          resp[0] = std::byte{1};
          return rfp::HandlerResult{1, sim::Micros(3)};
        });

    rfp::RfpOptions copts;
    copts.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
    rdma::Node& node_a = fabric.AddNode("A");
    rdma::Node& node_b = fabric.AddNode("B");
    rfp::Channel* ch_a = server.AcceptChannel(node_a, copts, 0);
    rfp::Channel* ch_b = server.AcceptChannel(node_b, copts, 0);
    if (mutant) {
      ch_a->set_unsafe_accept_stale_seq(true);
    }
    server.Start();

    auto put = [](rfp::RpcClient& client, HistoryRecorder& recorder, std::string key,
                  std::string value) -> sim::Task<void> {
      std::string req;
      req.push_back(static_cast<char>(key.size()));
      req += key + value;
      const uint64_t hid = recorder.OnInvoke(OpKind::kPut, key, value);
      std::vector<std::byte> resp(64);
      co_await client.Call(kKvPut, AsBytes(req), resp);
      recorder.OnPutResponse(hid);
    };

    // B: PUT k=v1 at t=0, PUT k=v2 at t=40us.
    eng.Spawn([](sim::Engine& engine, rfp::Channel* channel, HistoryRecorder* recorder,
                 decltype(put)& do_put) -> sim::Task<void> {
      rfp::RpcClient client(channel);
      co_await do_put(client, *recorder, "k", "v1");
      co_await engine.Sleep(sim::Micros(40) - engine.now());
      co_await do_put(client, *recorder, "k", "v2");
    }(eng, ch_b, &rec, put));

    // A: GET#1 at t=15us with a 15us deadline (abandoned mid-compute), then
    // GET#2 at t=150us, well after B's second PUT completed.
    std::string get2_error;
    eng.Spawn([](sim::Engine& engine, rfp::Channel* channel, HistoryRecorder* recorder,
                 std::string* error) -> sim::Task<void> {
      rfp::RpcClient client(channel);
      std::vector<std::byte> resp(256);
      co_await engine.Sleep(sim::Micros(15));
      const uint64_t h1 = recorder->OnInvoke(OpKind::kGet, "k");
      try {
        const size_t n = co_await client.Call(
            kKvGet, AsBytes("k"), resp,
            rfp::CallOptions{.deadline_ns = engine.now() + sim::Micros(15)});
        recorder->OnGetResponse(h1, resp[0] == std::byte{1},
                                ToString({resp.data() + 1, n - 1}));
      } catch (const rfp::DeadlineExceeded&) {
        // Abandoned: h1 stays pending, which the oracle models as
        // apply-anytime-or-never.
      }
      co_await engine.Sleep(sim::Micros(150) - engine.now());
      const uint64_t h2 = recorder->OnInvoke(OpKind::kGet, "k");
      try {
        const size_t n = co_await client.Call(
            kKvGet, AsBytes("k"), resp,
            rfp::CallOptions{.deadline_ns = engine.now() + sim::Micros(400)});
        recorder->OnGetResponse(h2, resp[0] == std::byte{1},
                                ToString({resp.data() + 1, n - 1}));
      } catch (const rfp::DeadlineExceeded&) {
        *error = "second GET exceeded its deadline";
      }
    }(eng, ch_a, &rec, &get2_error));

    eng.RunUntil(sim::Millis(1));
    server.Stop();
    if (!get2_error.empty()) {
      return Outcome::Fail(get2_error);
    }
    rec.CheckStrict(TraceOf(eng));  // throws LinearizabilityError on violation
    return Outcome::Pass(rec.completed_ops());
  };
}

// Multicore server, two workers, one pipelined (window=2) channel owned by
// worker 0. The fault plan crashes worker 0 while its visit is suspended
// mid-handler; worker 1's orphan-claim scan runs against the busy fence. The
// real fence defers the claim until the visit finishes. The mutant claims
// (and sweeps) the fenced channel: the thief's recv moves the channel's
// shared slot cursor while the victim is still computing, so the victim's
// ServerSend lands in the wrong slot — the client sees call B answered with
// call A's payload, or a call that never completes.
Scenario StealBusyScenario(bool mutant) {
  return [mutant](ScenarioRun& run) -> Outcome {
    sim::Engine& eng = run.engine;
    rdma::FabricConfig fc;
    fc.nic.cores = 4;
    fc.nic.nic_station_cores = 2;
    rdma::Fabric fabric(eng, fc);
    rdma::Node& server_node = fabric.AddNode("server");
    rdma::Node& client_node = fabric.AddNode("client");

    rfp::ServerOptions so;
    so.multicore = true;  // multicore workers steal work
    rfp::RpcServer server(fabric, server_node, 2, so);
    if (mutant) {
      server.set_unsafe_steal_busy_channels(true);
    }
    server.RegisterHandler(kEcho, [](const rfp::HandlerContext&,
                                     std::span<const std::byte> req,
                                     std::span<std::byte> resp) {
      std::memcpy(resp.data(), req.data(), req.size());
      return rfp::HandlerResult{req.size(), sim::Micros(30)};
    });
    rfp::RfpOptions copts;
    copts.window = 2;
    rfp::Channel* ch = server.AcceptChannel(client_node, copts, 0);
    server.Start();

    fault::FaultInjector injector(fabric);
    injector.BindServer(server_node.id(), &server);
    injector.Arm(run.plan);

    std::string failure;
    bool done = false;
    eng.Spawn([](sim::Engine& engine, rfp::Channel* channel, std::string* error,
                 bool* finished) -> sim::Task<void> {
      rfp::RpcClient client(channel);
      const rfp::CallOptions opts{.deadline_ns = engine.now() + sim::Millis(1)};
      auto ha = co_await client.SubmitCall(kEcho, AsBytes("call-A"), opts);
      auto hb = co_await client.SubmitCall(kEcho, AsBytes("call-B"), opts);
      std::vector<std::byte> resp_a(64);
      std::vector<std::byte> resp_b(64);
      try {
        const size_t na = co_await client.AwaitCall(ha, resp_a);
        const size_t nb = co_await client.AwaitCall(hb, resp_b);
        if (ToString({resp_a.data(), na}) != "call-A") {
          *error = "call A answered with '" + ToString({resp_a.data(), na}) + "'";
        } else if (ToString({resp_b.data(), nb}) != "call-B") {
          *error = "call B answered with '" + ToString({resp_b.data(), nb}) + "'";
        }
      } catch (const rfp::DeadlineExceeded&) {
        *error = "a pipelined call never completed (stranded slot)";
      }
      *finished = true;
    }(eng, ch, &failure, &done));

    eng.RunUntil(sim::Millis(3));
    server.Stop();
    if (!done) {
      return Outcome::Fail("client actor wedged");
    }
    if (!failure.empty()) {
      return Outcome::Fail(failure);
    }
    return Outcome::Pass(server.channel_steals() * 17 + server.requests_served());
  };
}

std::vector<fault::FaultPlan> StealCrashPlans() {
  std::vector<fault::FaultPlan> plans;
  for (const sim::Time at : {sim::Micros(6), sim::Micros(10), sim::Micros(20),
                             sim::Micros(40)}) {
    fault::FaultPlan plan;
    plan.ServerCrash(at, /*node=*/0, /*thread=*/0, sim::Millis(2));
    plans.push_back(plan);
  }
  return plans;
}

// Zero-copy GET publishes an indirect descriptor; the store must copy-on-
// write any PUT racing the pinned entry. The mutant store overwrites in
// place, and the strict-mode race detector throws race.fetch_store at the
// client's entry READ — with the failing schedule appended to the message
// by check::FabricChecker whenever the run deviated from FIFO.
Scenario CowPinnedScenario(bool mutant) {
  return [mutant](ScenarioRun& run) -> Outcome {
    check::ScopedMode strict(check::Mode::kStrict);
    sim::Engine& eng = run.engine;
    rdma::Fabric fabric(eng);
    rdma::Node& client_node = fabric.AddNode("client");
    rdma::Node& server_node = fabric.AddNode("server");
    rfp::Channel channel(fabric, client_node, server_node, rfp::RfpOptions{});
    kv::BucketTable table(64, server_node);
    if (mutant) {
      table.set_unsafe_inplace_put(true);
    }

    eng.Spawn([](sim::Engine& engine, rfp::Channel* ch,
                 kv::BucketTable* store) -> sim::Task<void> {
      store->Put(AsBytes("k"), AsBytes("AAAA"));
      std::vector<std::byte> buf(16384);
      size_t n = 0;
      while (!ch->TryServerRecv(buf, &n)) {
        co_await engine.Sleep(sim::Nanos(200));
      }
      auto pinned = store->GetPinned(AsBytes("k"));
      if (!pinned.has_value()) {
        co_return;
      }
      rfp::ZeroCopyRef ref;
      ref.rkey = pinned->rkey;
      ref.offset = pinned->offset;
      ref.len = pinned->len;
      ref.epoch = pinned->epoch;
      ref.pin = std::move(pinned->pin);
      co_await ch->ServerSendZeroCopy({}, ref);
      // The race under test: the descriptor is published and unfetched, and
      // the store processes a PUT for the same key. Real code copies on
      // write; the mutant scribbles the pinned bytes.
      store->Put(AsBytes("k"), AsBytes("BBBB"));
    }(eng, &channel, &table));

    std::string got;
    eng.Spawn([](sim::Engine& engine, rfp::Channel* ch, std::string* out) -> sim::Task<void> {
      std::vector<std::byte> resp(16384);
      co_await ch->ClientSend(AsBytes("get k"));
      // Let the server publish AND overwrite before the entry fetch, so the
      // READ snapshots whatever the PUT left behind.
      co_await engine.Sleep(sim::Micros(20));
      const size_t n = co_await ch->ClientRecv(resp);
      out->assign(reinterpret_cast<const char*>(resp.data()), n);
    }(eng, &channel, &got));

    eng.Run();  // strict mode: race.fetch_store throws ViolationError here
    if (got != "AAAA") {
      return Outcome::Fail("pinned GET returned '" + got + "', expected pre-PUT 'AAAA'");
    }
    return Outcome::Pass(table.stats().cow_puts);
  };
}

// Adaptive channels tuned to switch to server-reply on the first slow call
// (R=1, hysteresis=1). Each lane's handler runs a different process time, so
// across lanes the server's ServerSend brackets the instant the client's
// mode-switch WRITE lands: some lanes publish while the server still sees
// remote-fetch — the response is a local store the switched client will
// never fetch. The sweep's resend safety net completes those calls; the
// mutant disables it and the stranded lanes die on their deadlines.
Scenario SwitchRaceScenario(bool mutant) {
  return [mutant](ScenarioRun& run) -> Outcome {
    sim::Engine& eng = run.engine;
    rdma::Fabric fabric(eng);
    rdma::Node& server_node = fabric.AddNode("server");
    constexpr int kLanes = 8;
    rfp::RpcServer server(fabric, server_node, kLanes);
    server.RegisterHandler(kEcho, [](const rfp::HandlerContext&,
                                     std::span<const std::byte> req,
                                     std::span<std::byte> resp) {
      std::memcpy(resp.data(), req.data(), req.size());
      uint32_t process_ns = 0;
      std::memcpy(&process_ns, req.data(), sizeof(process_ns));
      return rfp::HandlerResult{req.size(), static_cast<sim::Time>(process_ns)};
    });

    rfp::RfpOptions copts;
    copts.retry_threshold = 1;
    copts.slow_calls_before_switch = 1;

    std::vector<rfp::Channel*> channels;
    for (int lane = 0; lane < kLanes; ++lane) {
      rdma::Node& node = fabric.AddNode("client" + std::to_string(lane));
      rfp::Channel* ch = server.AcceptChannel(node, copts, lane);
      if (mutant) {
        ch->set_unsafe_switch_race(true);
      }
      channels.push_back(ch);
    }
    server.Start();

    std::vector<std::string> failures(kLanes);
    int completed = 0;
    for (int lane = 0; lane < kLanes; ++lane) {
      const uint32_t process_ns = 500 + static_cast<uint32_t>(lane) * 700;
      eng.Spawn([](sim::Engine& engine, rfp::Channel* channel, uint32_t p,
                   std::string* error, int* done) -> sim::Task<void> {
        rfp::RpcClient client(channel);
        std::vector<std::byte> req(16);
        std::memcpy(req.data(), &p, sizeof(p));
        std::vector<std::byte> resp(64);
        try {
          const size_t n = co_await client.Call(
              kEcho, req, resp,
              rfp::CallOptions{.deadline_ns = engine.now() + sim::Millis(1)});
          if (n != req.size() || std::memcmp(resp.data(), req.data(), n) != 0) {
            *error = "echo payload mismatch";
          }
        } catch (const rfp::DeadlineExceeded&) {
          *error = "call stranded after mode switch (deadline exceeded)";
        }
        ++*done;
      }(eng, channels[static_cast<size_t>(lane)], process_ns,
        &failures[static_cast<size_t>(lane)], &completed));
    }

    eng.RunUntil(sim::Millis(3));
    server.Stop();
    if (completed != kLanes) {
      return Outcome::Fail("a lane never finished");
    }
    uint64_t switched = 0;
    std::string failure;
    for (int lane = 0; lane < kLanes; ++lane) {
      switched += channels[static_cast<size_t>(lane)]->stats().switches_to_reply;
      if (!failures[static_cast<size_t>(lane)].empty() && failure.empty()) {
        failure = "lane " + std::to_string(lane) + ": " +
                  failures[static_cast<size_t>(lane)];
      }
    }
    if (!failure.empty()) {
      return Outcome::Fail(failure);
    }
    return Outcome::Pass(switched);
  };
}

// Replicated two-node Jakiro cluster under a whole-node primary kill
// (docs/replication.md). Real path: lease expiry promotes the backup at
// epoch 2 and demotes the killed primary's gate in the same step, so the
// restarted node fences the stale-epoch writer with a redirect and the
// client-visible history stays linearizable. The mutant models a promotion
// that forgot the demotion: the resurrected primary still serves epoch 1,
// accepts and acks a write the new leader never sees, and the next read
// returns the overwritten value — the per-key oracle rejects the history,
// and in strict mode the coordinator's resurrection report trips the
// checker's epoch-monotonicity invariant first.
Scenario SplitBrainScenario(bool mutant) {
  return [mutant](ScenarioRun& run) -> Outcome {
    sim::Engine& eng = run.engine;
    rdma::Fabric fabric(eng);

    repl::ClusterConfig cfg = repl::DefaultClusterConfig();
    cfg.kv.server_threads = 2;
    cfg.kv.buckets_per_partition = 64;
    cfg.repl.lease_interval_ns = sim::Micros(150);
    cfg.repl.probe_interval_ns = sim::Micros(20);
    cfg.repl.channel.fetch_timeout_ns = sim::Micros(50);
    repl::Cluster cluster(fabric, cfg);
    if (mutant) {
      cluster.coordinator().set_unsafe_skip_demotion(true);
    }

    rdma::Node& client_node = fabric.AddNode("client");
    rdma::Node& stale_node = fabric.AddNode("stale");
    repl::Client client(cluster, client_node);
    kv::JakiroClient stale(cluster.primary(), stale_node);
    HistoryRecorder rec;
    client.set_history_recorder(&rec);
    stale.set_history_recorder(&rec);
    // The stale writer is pinned at the pre-promotion epoch: it never
    // re-resolves the leader, modeling a client that slept through the
    // failover.
    for (int t = 0; t < stale.num_channels(); ++t) {
      stale.channel(t)->set_request_epoch(1);
    }
    cluster.Start();

    fault::FaultInjector injector(fabric);
    injector.BindServer(cluster.primary().node().id(), &cluster.primary().rpc());
    fault::FaultPlan plan;
    plan.ServerCrashAll(sim::Micros(300), cluster.primary().node().id(), sim::Micros(700));
    injector.Arm(plan);

    std::string failure;
    bool done = false;
    eng.Spawn([](sim::Engine& engine, repl::Cluster* cl, repl::Client* c, kv::JakiroClient* st,
                 std::string* error, bool* finished) -> sim::Task<void> {
      try {
        co_await c->Put(AsBytes("k"), AsBytes("v1"));
        // The kill lands at 300us; wait for the gate to flip so the second
        // PUT completes in one attempt (a retried PUT would leave pending
        // duplicate invocations the oracle could use to absorb the
        // violation).
        while (cl->leader_index() == 0 && engine.now() < sim::Micros(900)) {
          co_await engine.Sleep(sim::Micros(10));
        }
        if (cl->leader_index() == 0) {
          *error = "backup was never promoted";
          *finished = true;
          co_return;
        }
        c->Refresh();
        co_await c->Put(AsBytes("k"), AsBytes("v2"));
        // The old primary restarts at t=1ms; give it headroom, then write
        // k=v3 through the stale-epoch client.
        if (engine.now() < sim::Micros(1100)) {
          co_await engine.Sleep(sim::Micros(1100) - engine.now());
        }
        try {
          co_await st->Put(AsBytes("k"), AsBytes("v3"));
        } catch (const rfp::Redirected&) {
          // Real path: the demoted gate fences the stale writer; its PUT
          // stays pending (apply-never is a legal linearization).
        } catch (const rfp::DeadlineExceeded&) {
        }
        std::vector<std::byte> buf(256);
        co_await c->Get(AsBytes("k"), buf);
      } catch (const std::exception& e) {
        *error = e.what();
      }
      *finished = true;
    }(eng, &cluster, &client, &stale, &failure, &done));

    eng.RunUntil(sim::Millis(4));
    cluster.Stop();
    if (!done) {
      return Outcome::Fail("client actor wedged");
    }
    if (!failure.empty()) {
      return Outcome::Fail(failure);
    }
    rec.CheckStrict(TraceOf(eng));  // throws LinearizabilityError on violation
    return Outcome::Pass(rec.completed_ops() * 31 + cluster.coordinator().promotions());
  };
}

std::vector<Entry> Entries() {
  return {
      {"late_duplicate", &LateDuplicateScenario, nullptr},
      {"steal_busy", &StealBusyScenario, &StealCrashPlans},
      {"cow_pinned", &CowPinnedScenario, nullptr},
      {"switch_race", &SwitchRaceScenario, nullptr},
      {"split_brain", &SplitBrainScenario, nullptr},
  };
}

}  // namespace corpus
}  // namespace explore
