// Multi-core server dispatch (docs/multicore.md): worker/core pinning via
// rdma::Node::ReserveWorkerCore, work stealing around worker crashes and
// restarts, doorbell-batched reply publication, coalesced fetch sweeps, the
// backlog-derived BUSY retry hint without admission control, pipelined
// latency accounting across slot reuse, and per-worker channel ownership
// (visit order after steals, ownership census).

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
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

constexpr uint16_t kEcho = 1;

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

void RegisterEcho(RpcServer& server) {
  server.RegisterHandler(kEcho, [](const HandlerContext&, std::span<const std::byte> req,
                                   std::span<std::byte> resp) {
    std::memcpy(resp.data(), req.data(), req.size());
    return HandlerResult{req.size(), sim::Nanos(300)};
  });
}

// Sequential call loop; bumps *done after every completed call.
sim::Task<void> CallLoop(Channel* channel, int calls, uint64_t* done) {
  RpcClient client(channel);
  std::vector<std::byte> resp(16384);
  for (int i = 0; i < calls; ++i) {
    co_await client.Call(kEcho, AsBytes("payload-" + std::to_string(i)), resp);
    ++*done;
  }
}

constexpr uint16_t kSlowEcho = 2;

// One call tagged with `tag`, so a recording handler can tell channels apart.
sim::Task<void> TaggedCall(Channel* channel, uint16_t rpc_id, std::string tag) {
  RpcClient client(channel);
  std::vector<std::byte> resp(16384);
  co_await client.Call(rpc_id, AsBytes(tag), resp);
}

// (worker, request tag) of every dispatched request, in dispatch order. A
// sweep dispatches in the order it visits its channels, so this is the
// visit order.
using ServedLog = std::vector<std::pair<int, std::string>>;

void RegisterRecorders(RpcServer& server, ServedLog* log) {
  const auto record = [log](sim::Time process_ns) {
    return [log, process_ns](const HandlerContext& ctx, std::span<const std::byte> req,
                             std::span<std::byte> resp) {
      log->emplace_back(ctx.thread_index,
                        std::string(reinterpret_cast<const char*>(req.data()), req.size()));
      std::memcpy(resp.data(), req.data(), req.size());
      return HandlerResult{req.size(), process_ns};
    };
  };
  server.RegisterHandler(kEcho, record(sim::Nanos(300)));
  server.RegisterHandler(kSlowEcho, record(sim::Micros(30)));
}

class MulticoreTest : public ::testing::Test {
 protected:
  MulticoreTest() {
    rdma::FabricConfig fc;
    fc.nic.cores = 4;
    fc.nic.nic_station_cores = 2;
    fabric_ = std::make_unique<rdma::Fabric>(engine_, fc);
    server_node_ = &fabric_->AddNode("server");
    client_node_ = &fabric_->AddNode("client");
  }

  sim::Engine engine_;
  std::unique_ptr<rdma::Fabric> fabric_;
  rdma::Node* server_node_ = nullptr;
  rdma::Node* client_node_ = nullptr;
};

// Workers pin round-robin over the compute range [nic_station_cores, cores),
// never onto the cores reserved for the NIC stations; with more workers than
// compute cores they time-share. Legacy servers report no pinning.
TEST_F(MulticoreTest, WorkersPinAboveNicStationCores) {
  ServerOptions so;
  so.multicore = true;
  RpcServer server(*fabric_, *server_node_, 4, so);
  EXPECT_EQ(server.thread_core(0), 2);
  EXPECT_EQ(server.thread_core(1), 3);
  EXPECT_EQ(server.thread_core(2), 2);  // wrapped: shares core 2 with worker 0
  EXPECT_EQ(server.thread_core(3), 3);

  RpcServer legacy(*fabric_, *server_node_, 2);
  EXPECT_EQ(legacy.thread_core(0), -1);
  EXPECT_EQ(legacy.thread_core(1), -1);
}

// Latest completion instant of `workers` concurrent 30 us calls, one per
// worker, on a node with two compute cores; *node_busy gets the node cores'
// summed busy fraction over the run.
sim::Time SlowCallsOnePerWorker(bool multicore, int workers, double* node_busy) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.nic.cores = 4;
  fc.nic.nic_station_cores = 2;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");
  ServerOptions so;
  so.multicore = multicore;
  RpcServer server(fabric, server_node, workers, so);
  ServedLog log;
  RegisterRecorders(server, &log);
  sim::Time last_done = 0;
  for (int w = 0; w < workers; ++w) {
    Channel* channel = server.AcceptChannel(client_node, RfpOptions{}, w);
    engine.Spawn([](sim::Engine& e, Channel* ch, sim::Time* last) -> sim::Task<void> {
      co_await TaggedCall(ch, kSlowEcho, "slow");
      *last = std::max(*last, e.now());
    }(engine, channel, &last_done));
  }
  server.Start();
  engine.RunUntil(sim::Millis(1));
  server.Stop();
  EXPECT_EQ(static_cast<int>(log.size()), workers);
  *node_busy = 0;
  for (int core = 0; core < server_node.cpus().cores(); ++core) {
    *node_busy += server_node.cpus().CoreUtilization(core, 0, engine.now());
  }
  return last_done;
}

// A default worker charges a dedicated core of its own, so eight of them on
// a node with two compute cores still serve in parallel and charge no node
// core; pinned under multicore, the same eight time-share the two cores.
TEST_F(MulticoreTest, DefaultServerWithMoreWorkersThanCoresServesInParallel) {
  double default_busy = 0;
  double pinned_busy = 0;
  const sim::Time parallel = SlowCallsOnePerWorker(false, 8, &default_busy);
  const sim::Time pinned = SlowCallsOnePerWorker(true, 8, &pinned_busy);
  EXPECT_LT(parallel, sim::Micros(60));  // one 30 us handler deep
  EXPECT_GE(pinned, sim::Micros(120));   // four 30 us handlers per core
  EXPECT_EQ(default_busy, 0.0);
  EXPECT_GT(pinned_busy, 0.0);
}

// Two pinned workers each sweep their own channels and all traffic
// completes; CPU flows through the per-core resources, so the worker cores
// show utilization while the NIC-station cores stay clear of sweep work.
TEST_F(MulticoreTest, MulticoreSweepServesAcrossWorkers) {
  ServerOptions so;
  so.multicore = true;
  RpcServer server(*fabric_, *server_node_, 2, so);
  RegisterEcho(server);
  Channel* ch0 = server.AcceptChannel(*client_node_, RfpOptions{}, 0);
  Channel* ch1 = server.AcceptChannel(*client_node_, RfpOptions{}, 1);
  server.Start();
  uint64_t done0 = 0;
  uint64_t done1 = 0;
  engine_.Spawn(CallLoop(ch0, 50, &done0));
  engine_.Spawn(CallLoop(ch1, 50, &done1));
  engine_.RunUntil(sim::Millis(10));
  server.Stop();
  EXPECT_EQ(done0, 50u);
  EXPECT_EQ(done1, 50u);
  EXPECT_GT(server.requests_served_by(0), 0u);
  EXPECT_GT(server.requests_served_by(1), 0u);
  // Sweep CPU ran on the pinned compute cores, not the NIC-station cores.
  EXPECT_GT(server_node_->cpus().CoreUtilization(2, 0, engine_.now()), 0.0);
  EXPECT_GT(server_node_->cpus().CoreUtilization(3, 0, engine_.now()), 0.0);
  EXPECT_EQ(server_node_->cpus().CoreUtilization(0, 0, engine_.now()), 0.0);
  EXPECT_EQ(server_node_->cpus().CoreUtilization(1, 0, engine_.now()), 0.0);
}

// Crash one of two workers mid-traffic: the survivor claims the orphaned
// channel and serves it (the dark window lasts sweeps, not the outage), and
// after restart the crashed worker steals its way back into the rotation.
TEST_F(MulticoreTest, CrashedWorkerChannelsAreStolenServedAndRejoinAfterRestart) {
  ServerOptions so;
  so.multicore = true;
  so.steal_min_backlog = 1;  // single-call channels: any pending request is worth stealing
  RpcServer server(*fabric_, *server_node_, 2, so);
  RegisterEcho(server);
  Channel* ch0 = server.AcceptChannel(*client_node_, RfpOptions{}, 0);
  Channel* ch1 = server.AcceptChannel(*client_node_, RfpOptions{}, 1);
  server.Start();
  uint64_t done0 = 0;
  uint64_t done1 = 0;
  engine_.Spawn(CallLoop(ch0, 200, &done0));
  engine_.Spawn(CallLoop(ch1, 200, &done1));
  engine_.ScheduleAt(sim::Micros(20), [&server] { server.CrashThread(0); });
  uint64_t served_by_0_at_restart = 0;
  engine_.ScheduleAt(sim::Micros(200), [&server, &served_by_0_at_restart] {
    served_by_0_at_restart = server.requests_served_by(0);
    server.RestartThread(0);
  });
  engine_.RunUntil(sim::Millis(20));
  server.Stop();
  // All traffic completed despite the crash — no client-visible failures.
  EXPECT_EQ(done0, 200u);
  EXPECT_EQ(done1, 200u);
  // The survivor claimed the orphaned channel...
  EXPECT_GE(server.channel_steals(), 1u);
  EXPECT_GE(server.thread_steals(1), 1u);
  // ...and the restarted worker stole its way back to serving.
  EXPECT_GT(server.requests_served_by(0), served_by_0_at_restart);
}

// With multicore batch_reply_publication, a visit that completes a window of
// reply-mode slots publishes them in one doorbell batch instead of one WRITE
// posting per slot.
TEST_F(MulticoreTest, BatchedReplyPublicationCoalescesDoorbells) {
  ServerOptions so;
  so.multicore = true;  // batch_reply_publication defaults on
  RpcServer server(*fabric_, *server_node_, 1, so);
  RegisterEcho(server);
  RfpOptions opts;
  opts.window = 4;
  opts.force_mode = RfpOptions::ForceMode::kForceReply;
  Channel* ch = server.AcceptChannel(*client_node_, opts, 0);
  server.Start();
  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await client.SubmitCall(kEcho, AsBytes("m" + std::to_string(i))));
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 4; ++i) {
      const size_t got = co_await client.AwaitCall(handles[static_cast<size_t>(i)], out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                "m" + std::to_string(i));
    }
  }(ch));
  engine_.RunUntil(sim::Millis(5));
  server.Stop();
  EXPECT_EQ(ch->stats().reply_pushes, 4u);
  // One doorbell batch for the client's submit burst, at least one for the
  // server's deferred reply publication.
  EXPECT_GE(ch->stats().doorbell_batches, 2u);
  EXPECT_GE(ch->stats().batched_ops, 4u);
}

// Coalesced fetch: with >= 2 slots awaiting responses, a sweep issues one
// spanning READ over the pending span instead of one READ per slot, and the
// payloads still come back intact per slot.
TEST_F(MulticoreTest, CoalescedFetchSpansPendingSlots) {
  ServerOptions so;
  so.multicore = true;
  RpcServer server(*fabric_, *server_node_, 1, so);
  RegisterEcho(server);
  RfpOptions opts;
  opts.window = 4;
  opts.coalesced_fetch = true;
  opts.force_mode = RfpOptions::ForceMode::kForceFetch;
  Channel* ch = server.AcceptChannel(*client_node_, opts, 0);
  server.Start();
  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    RpcClient client(channel);
    for (int round = 0; round < 5; ++round) {
      std::vector<Channel::CallHandle> handles;
      for (int i = 0; i < 4; ++i) {
        handles.push_back(co_await client.SubmitCall(
            kEcho, AsBytes("r" + std::to_string(round) + "-m" + std::to_string(i))));
      }
      std::vector<std::byte> out(16384);
      for (int i = 0; i < 4; ++i) {
        const size_t got = co_await client.AwaitCall(handles[static_cast<size_t>(i)], out);
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got),
                  "r" + std::to_string(round) + "-m" + std::to_string(i));
      }
    }
  }(ch));
  engine_.RunUntil(sim::Millis(10));
  server.Stop();
  EXPECT_GE(ch->stats().coalesced_fetches, 1u);
  EXPECT_GE(ch->stats().coalesced_slots, 2u);
}

// The BUSY(deadline) retry hint must reflect the backlog even when
// admission_control is off: deadline shedding is live on its own, and the
// old hard-coded 1 us hint told clients to retry straight into the backlog.
TEST_F(MulticoreTest, DeadlineShedHintReflectsBacklogWithoutAdmissionControl) {
  ServerOptions so;
  so.dispatch_cpu_ns = 2000;  // per-request floor: 4 pending => 8 us of work
  ASSERT_FALSE(so.admission_control);
  RpcServer server(*fabric_, *server_node_, 1, so);
  RegisterEcho(server);
  RfpOptions opts;
  opts.window = 4;
  opts.force_mode = RfpOptions::ForceMode::kForceFetch;
  opts.call_deadline_ns = 1;  // dead on arrival: every request is shed
  Channel* ch = server.AcceptChannel(*client_node_, opts, 0);
  server.Start();
  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(co_await client.SubmitCall(kEcho, AsBytes("doomed")));
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 4; ++i) {
      try {
        (void)co_await client.AwaitCall(handles[static_cast<size_t>(i)], out);
      } catch (const DeadlineExceeded&) {
      }
    }
  }(ch));
  engine_.RunUntil(sim::Millis(5));
  server.Stop();
  EXPECT_GE(server.requests_shed_deadline(), 1u);
  // Backlog-derived hint: >= 2 us (4 pending x 2 us each), never the
  // hard-coded 1 us the bug produced with admission control off.
  EXPECT_GE(ch->last_retry_after_us(), 2);
}

// Pipelined latency accounting across slot reuse: a slot's submit timestamp
// must be overwritten on resubmit, so a call staged into a recycled slot
// after a long idle gap reports its own latency, not the gap.
TEST_F(MulticoreTest, AwaitCallLatencyCorrectAcrossSlotReuse) {
  RpcServer server(*fabric_, *server_node_, 1);
  RegisterEcho(server);
  RfpOptions opts;
  opts.window = 2;
  Channel* ch = server.AcceptChannel(*client_node_, opts, 0);
  server.Start();
  sim::Histogram latencies;
  engine_.Spawn([](sim::Engine& eng, Channel* channel, sim::Histogram* out) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<std::byte> resp(16384);
    // Out-of-order await across both slots.
    const Channel::CallHandle a = co_await client.SubmitCall(kEcho, AsBytes("a"));
    const Channel::CallHandle b = co_await client.SubmitCall(kEcho, AsBytes("b"));
    (void)co_await client.AwaitCall(b, resp);
    (void)co_await client.AwaitCall(a, resp);
    // Long idle gap, then resubmit into the recycled slots: the gap must not
    // leak into the new calls' latency.
    co_await eng.Sleep(sim::Millis(2));
    const Channel::CallHandle c = co_await client.SubmitCall(kEcho, AsBytes("c"));
    (void)co_await client.AwaitCall(c, resp);
    *out = client.latency();
  }(engine_, ch, &latencies));
  engine_.RunUntil(sim::Millis(10));
  server.Stop();
  EXPECT_EQ(latencies.count(), 3u);
  EXPECT_LT(latencies.max(), sim::Millis(1));
}

// Per-worker overload detectors: only the loaded worker's watermark machine
// trips; its neighbor on the other core stays clear.
TEST_F(MulticoreTest, OverloadStateIsPerWorkerUnderMulticore) {
  ServerOptions so;
  so.multicore = true;
  so.admission_control = true;
  so.dispatch_cpu_ns = 2000;
  so.overload_hi_watermark_ns = 4000;
  so.overload_lo_watermark_ns = 1000;
  so.admission_budget = 1;
  RpcServer server(*fabric_, *server_node_, 2, so);
  RegisterEcho(server);
  RfpOptions opts;
  opts.window = 8;
  opts.force_mode = RfpOptions::ForceMode::kForceFetch;
  Channel* hot = server.AcceptChannel(*client_node_, opts, 0);
  server.Start();
  engine_.Spawn([](Channel* channel) -> sim::Task<void> {
    RpcClient client(channel);
    std::vector<Channel::CallHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(co_await client.SubmitCall(kEcho, AsBytes("burst")));
    }
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 8; ++i) {
      (void)co_await client.AwaitCall(handles[static_cast<size_t>(i)], out);
    }
  }(hot));
  engine_.RunUntil(sim::Millis(5));
  server.Stop();
  EXPECT_GE(server.overload_enters(), 1u);
  EXPECT_GE(server.requests_shed_admission(), 1u);
  // The idle worker never tripped its detector.
  EXPECT_FALSE(server.thread_overloaded(1));
}

// Owned lists stay in acceptance order through an orphan claim: the
// survivor inserts each claimed channel at its acceptance position, so with
// every channel pending it visits them in acceptance order, not in the order
// it acquired them (which would be ch1, ch3, ch0, ch2).
TEST_F(MulticoreTest, VisitOrderIsAcceptanceOrderAfterOrphanClaims) {
  ServerOptions so;
  so.multicore = true;
  RpcServer server(*fabric_, *server_node_, 2, so);
  ServedLog log;
  RegisterRecorders(server, &log);
  std::vector<Channel*> ch;
  for (int i = 0; i < 4; ++i) {
    ch.push_back(server.AcceptChannel(*client_node_, RfpOptions{}, i % 2));
  }
  server.Start();
  engine_.ScheduleAt(sim::Micros(1), [&] { server.CrashThread(0); });
  int owned_by_survivor = -1;
  engine_.ScheduleAt(sim::Micros(50), [&] {
    owned_by_survivor = server.channels_owned_by(1);
    // Freeze both workers, queue one request per channel, then revive the
    // survivor: its first sweep finds all four pending.
    server.CrashThread(1);
  });
  engine_.ScheduleAt(sim::Micros(60), [&] {
    for (int i = 0; i < 4; ++i) {
      engine_.Spawn(TaggedCall(ch[static_cast<size_t>(i)], kEcho, "ch" + std::to_string(i)));
    }
  });
  engine_.ScheduleAt(sim::Micros(100), [&] { server.RestartThread(1); });
  engine_.RunUntil(sim::Millis(1));
  server.Stop();
  EXPECT_EQ(owned_by_survivor, 4);
  EXPECT_EQ(server.thread_steals(1), 2u);
  const ServedLog want{{1, "ch0"}, {1, "ch1"}, {1, "ch2"}, {1, "ch3"}};
  EXPECT_EQ(log, want);
}

// Same after a load steal: an idle worker takes a backlogged channel from a
// worker stuck in a long visit, and the stolen channel sorts ahead of the
// thief's own later-accepted one.
TEST_F(MulticoreTest, VisitOrderIsAcceptanceOrderAfterLoadSteal) {
  ServerOptions so;
  so.multicore = true;
  so.steal_min_backlog = 1;
  RpcServer server(*fabric_, *server_node_, 2, so);
  ServedLog log;
  RegisterRecorders(server, &log);
  // Worker 0 owns ch0, ch2, ch3; worker 1 owns ch1.
  std::vector<Channel*> ch;
  for (const int owner : {0, 1, 0, 0}) {
    ch.push_back(server.AcceptChannel(*client_node_, RfpOptions{}, owner));
  }
  server.Start();
  // Worker 0 sits 30 us in ch3's handler; ch0's request arrives meanwhile,
  // behind it in worker 0's sweep, and idle worker 1 steals ch0.
  engine_.Spawn(TaggedCall(ch[3], kSlowEcho, "slow"));
  engine_.ScheduleAt(sim::Micros(5), [&] { engine_.Spawn(TaggedCall(ch[0], kEcho, "stolen")); });
  std::ptrdiff_t frozen_at = 0;
  int owned_by_thief = -1;
  uint64_t thief_steals = 0;
  engine_.ScheduleAt(sim::Micros(60), [&] {
    owned_by_thief = server.channels_owned_by(1);
    thief_steals = server.thread_steals(1);
    server.CrashThread(0);
    server.CrashThread(1);
    frozen_at = static_cast<std::ptrdiff_t>(log.size());
  });
  engine_.ScheduleAt(sim::Micros(70), [&] {
    engine_.Spawn(TaggedCall(ch[1], kEcho, "ch1"));
    engine_.Spawn(TaggedCall(ch[0], kEcho, "ch0"));
  });
  engine_.ScheduleAt(sim::Micros(100), [&] { server.RestartThread(1); });
  engine_.RunUntil(sim::Millis(1));
  server.Stop();
  EXPECT_EQ(thief_steals, 1u);
  EXPECT_EQ(owned_by_thief, 2);
  const ServedLog before{{0, "slow"}, {1, "stolen"}};
  EXPECT_EQ(ServedLog(log.begin(), log.begin() + frozen_at), before);
  // With worker 0 still down, worker 1's first sweep serves its own list
  // (ch0 before ch1); only then does it claim ch2 and ch3 as orphans.
  const ServedLog after{{1, "ch0"}, {1, "ch1"}};
  EXPECT_EQ(ServedLog(log.begin() + frozen_at, log.end()), after);
}

// The owned counts partition the live channels at every instant: the sum of
// channels_owned_by over all workers equals the live channel count through
// accepts, orphan claims, load steals and closes.
TEST_F(MulticoreTest, OwnedListsPartitionLiveChannelsThroughStealsAndCloses) {
  ServerOptions so;
  so.multicore = true;
  so.steal_min_backlog = 1;
  so.max_steals_per_sweep = 2;
  constexpr int kWorkers = 3;
  RpcServer server(*fabric_, *server_node_, kWorkers, so);
  RegisterEcho(server);
  int accepted = 0;
  int mismatches = 0;
  int probes = 0;
  const auto check = [&] {
    int sum = 0;
    for (int t = 0; t < kWorkers; ++t) {
      sum += server.channels_owned_by(t);
    }
    ++probes;
    if (sum != accepted - static_cast<int>(server.channels_closed())) {
      ++mismatches;
    }
  };
  std::vector<Channel*> ch;
  std::vector<uint64_t> done(6, 0);
  const auto accept = [&](int owner) {
    ch.push_back(server.AcceptChannel(*client_node_, RfpOptions{}, owner));
    ++accepted;
    check();
  };
  for (int i = 0; i < 4; ++i) {
    accept(i % 2);  // worker 2 starts empty, so it load-steals
  }
  server.Start();
  for (size_t i = 0; i < 4; ++i) {
    engine_.Spawn(CallLoop(ch[i], 40, &done[i]));
  }
  engine_.ScheduleAt(sim::Micros(20), [&] {
    accept(0);
    accept(1);
    engine_.Spawn(CallLoop(ch[4], 40, &done[4]));
    engine_.Spawn(CallLoop(ch[5], 40, &done[5]));
  });
  engine_.ScheduleAt(sim::Micros(30), [&] { server.CrashThread(0); });
  engine_.ScheduleAt(sim::Micros(120), [&] { server.RestartThread(0); });
  // Close channels whose clients are done (CloseChannel's contract).
  engine_.ScheduleAt(sim::Millis(2), [&] {
    EXPECT_TRUE(server.CloseChannel(ch[1]));
    check();
    EXPECT_TRUE(server.CloseChannel(ch[4]));
    check();
  });
  // Probe between events all along the run.
  for (sim::Time t = 0; t < sim::Millis(3); t += sim::Nanos(250)) {
    engine_.ScheduleAt(t, check);
  }
  engine_.RunUntil(sim::Millis(3));
  server.Stop();
  for (const uint64_t n : done) {
    EXPECT_EQ(n, 40u);
  }
  EXPECT_GE(server.channel_steals(), 2u);
  EXPECT_EQ(server.channels_closed(), 2u);
  EXPECT_GT(probes, 10000);
  EXPECT_EQ(mismatches, 0);
  int sum = 0;
  for (int t = 0; t < kWorkers; ++t) {
    sum += server.channels_owned_by(t);
  }
  EXPECT_EQ(sum, 4);
}

}  // namespace
}  // namespace rfp
