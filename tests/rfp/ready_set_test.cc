// The server sweep's ready set (docs/multicore.md §2): each worker visits
// only the channels a request WRITE (request, re-issue, mode flip) has
// marked since their last idle visit. Every case here pins dispatch
// instants, so a ready set that drops or delays a visit shows up as a moved
// or missing dispatch: a WRITE posted mid-visit, a mode flip on an idle
// channel, a steal of a ready channel, a close of a ready channel, and a
// BUSY re-issue.

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

constexpr uint16_t kEcho = 1;
constexpr uint16_t kSlow = 2;

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// One dispatched request: its tag (the request payload), the worker that ran
// it and the virtual instant the handler started.
struct Dispatch {
  std::string tag;
  int worker = 0;
  sim::Time at = 0;

  bool operator==(const Dispatch&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Dispatch& d) {
  return os << "{" << d.tag << ", worker " << d.worker << ", t=" << d.at << "}";
}

// kEcho runs 300 ns, kSlow 20 us; both log their dispatch.
void RegisterLogged(RpcServer& server, sim::Engine& engine, std::vector<Dispatch>* log) {
  const auto logged = [&engine, log](sim::Time process_ns) {
    return [&engine, log, process_ns](const HandlerContext& ctx, std::span<const std::byte> req,
                                      std::span<std::byte> resp) {
      log->push_back({std::string(reinterpret_cast<const char*>(req.data()), req.size()),
                      ctx.thread_index, engine.now()});
      std::memcpy(resp.data(), req.data(), req.size());
      return HandlerResult{req.size(), process_ns};
    };
  };
  server.RegisterHandler(kEcho, logged(sim::Nanos(300)));
  server.RegisterHandler(kSlow, logged(sim::Micros(20)));
}

sim::Task<void> TaggedCall(Channel* channel, uint16_t rpc_id, std::string tag) {
  RpcClient client(channel);
  std::vector<std::byte> out(1024);
  co_await client.Call(rpc_id, AsBytes(tag), out);
}

// A server and a client node on a fabric with 4 NIC cores, 2 of them for the
// NIC stations (so multicore workers pin to cores 2 and 3).
struct Cluster {
  Cluster() {
    rdma::FabricConfig fc;
    fc.nic.cores = 4;
    fc.nic.nic_station_cores = 2;
    fabric = std::make_unique<rdma::Fabric>(engine, fc);
    server_node = &fabric->AddNode("server");
    client_node = &fabric->AddNode("client");
  }

  sim::Engine engine;
  std::unique_ptr<rdma::Fabric> fabric;
  rdma::Node* server_node = nullptr;
  rdma::Node* client_node = nullptr;
};

// (a) While the worker is suspended in ch0's 20 us visit, ch1's client posts
// a request that lands before the visit ends, and ch2's client posts one
// that is still on the wire when the sweep reaches ch2. ch3's 20 us request,
// pending since the start, holds the sweep after ch2, so a next-sweep
// service comes at least 20 us late. ch1 is served in the same sweep, right
// after ch0's visit; ch2's in-flight WRITE keeps it ready through its empty
// visit, so the next sweep serves it, after ch3.
TEST(ReadySetTest, WritePostedDuringASuspendedVisitIsServedInThatSweep) {
  Cluster c;
  RpcServer server(*c.fabric, *c.server_node, 1);
  std::vector<Dispatch> log;
  RegisterLogged(server, c.engine, &log);
  std::vector<Channel*> ch;
  for (int i = 0; i < 4; ++i) {
    ch.push_back(server.AcceptChannel(*c.client_node, RfpOptions{}, 0));
  }
  server.Start();
  c.engine.Spawn(TaggedCall(ch[0], kSlow, "ch0"));
  c.engine.Spawn(TaggedCall(ch[3], kSlow, "ch3"));
  // ch0 is dispatched at 1 us; post ch1 at once and ch2 just before ch0's
  // visit ends.
  c.engine.ScheduleAt(sim::Micros(1) + sim::Nanos(10), [&] {
    c.engine.Spawn(TaggedCall(ch[1], kEcho, "ch1"));
  });
  c.engine.ScheduleAt(sim::Micros(21), [&] { c.engine.Spawn(TaggedCall(ch[2], kEcho, "ch2")); });
  c.engine.RunUntil(sim::Millis(2));
  server.Stop();
  const std::vector<Dispatch> want{
      {"ch0", 0, 1000}, {"ch1", 0, 21150}, {"ch3", 0, 21600}, {"ch2", 0, 41790}};
  EXPECT_EQ(log, want);
}

// One adaptive call (R=1, switch after one slow call) against a handler
// running `process` ns; returns false when the call stranded on its
// deadline, else sets *done_at to its completion instant.
bool RunSwitchRace(sim::Time process, bool unsafe_switch_race, sim::Time* done_at,
                   Channel::Stats* stats) {
  Cluster c;
  RpcServer server(*c.fabric, *c.server_node, 1);
  server.RegisterHandler(kEcho, [process](const HandlerContext&, std::span<const std::byte> req,
                                          std::span<std::byte> resp) {
    std::memcpy(resp.data(), req.data(), req.size());
    return HandlerResult{req.size(), process};
  });
  RfpOptions options;
  options.retry_threshold = 1;
  options.slow_calls_before_switch = 1;
  Channel* channel = server.AcceptChannel(*c.client_node, options, 0);
  channel->set_unsafe_switch_race(unsafe_switch_race);
  server.Start();
  bool completed = false;
  c.engine.Spawn([](sim::Engine& eng, Channel* ch, sim::Time* at, bool* ok) -> sim::Task<void> {
    RpcClient client(ch);
    std::vector<std::byte> out(64);
    try {
      co_await client.Call(kEcho, AsBytes("flip"), out,
                           CallOptions{.deadline_ns = eng.now() + sim::Micros(200)});
      *at = eng.now();
      *ok = true;
    } catch (const DeadlineExceeded&) {
    }
  }(c.engine, channel, done_at, &completed));
  c.engine.RunUntil(sim::Millis(1));
  server.Stop();
  *stats = channel->stats();
  return completed;
}

// (b) The switch race on an idle channel: the handler's process time is
// chosen so the response is stored as a fetch-mode local store just before
// the client posts its mode-switch WRITE. The visit ends idle, so only that
// WRITE can bring the channel back; the next sweep then re-pushes the
// stored response. Without the resend safety net (the switch-race mutant)
// the same call strands, which proves the race happened.
TEST(ReadySetTest, SwitchWriteOnAnIdleChannelRePushesTheStoredResponse) {
  constexpr sim::Time kProcess = sim::Nanos(1600);
  sim::Time done_at = 0;
  Channel::Stats stats;
  ASSERT_TRUE(RunSwitchRace(kProcess, false, &done_at, &stats));
  EXPECT_EQ(stats.switches_to_reply, 1u);
  EXPECT_EQ(stats.reply_pushes, 1u);
  EXPECT_EQ(done_at, 4799);
  sim::Time mutant_done_at = 0;
  EXPECT_FALSE(RunSwitchRace(kProcess, true, &mutant_done_at, &stats));
  EXPECT_EQ(stats.reply_pushes, 0u);
}

// Echoes the request; its first four bytes name the process time in ns.
HandlerResult TimedEcho(const HandlerContext&, std::span<const std::byte> req,
                        std::span<std::byte> resp) {
  uint32_t process_ns = 0;
  std::memcpy(&process_ns, req.data(), sizeof(process_ns));
  std::memcpy(resp.data(), req.data(), req.size());
  return HandlerResult{req.size(), static_cast<sim::Time>(process_ns)};
}

// (b, pipelined) One visit serves both slots of a window-2 channel: slot 0's
// response is stored in remote-fetch mode, then the client's mode-switch
// WRITE lands and completes during slot 1's 4 us handler, and slot 1's
// response is pushed in reply mode. The visit ends with no WRITE in flight
// and no request pending, but slot 0's response is still unpushed in reply
// mode, so the channel must stay ready: the next sweep re-pushes it.
TEST(ReadySetTest, VisitEndingWithAnUnpushedReplyKeepsTheChannelReady) {
  Cluster c;
  RpcServer server(*c.fabric, *c.server_node, 1);
  server.RegisterHandler(kEcho, TimedEcho);
  RfpOptions options;
  options.window = 2;
  options.retry_threshold = 1;
  options.slow_calls_before_switch = 1;
  Channel* channel = server.AcceptChannel(*c.client_node, options, 0);
  server.Start();
  std::vector<sim::Time> done_at;
  c.engine.Spawn([](sim::Engine& eng, Channel* ch, std::vector<sim::Time>* done) -> sim::Task<void> {
    RpcClient client(ch);
    std::vector<std::byte> out(64);
    std::vector<Channel::CallHandle> handles;
    for (const uint32_t process_ns : {1500u, 4000u}) {
      std::vector<std::byte> req(8);
      std::memcpy(req.data(), &process_ns, sizeof(process_ns));
      handles.push_back(co_await client.SubmitCall(
          kEcho, req, CallOptions{.deadline_ns = eng.now() + sim::Micros(300)}));
    }
    for (const Channel::CallHandle& handle : handles) {
      co_await client.AwaitCall(handle, out);
      done->push_back(eng.now());
    }
  }(c.engine, channel, &done_at));
  c.engine.RunUntil(sim::Millis(1));
  server.Stop();
  EXPECT_EQ(channel->stats().switches_to_reply, 1u);
  EXPECT_EQ(channel->stats().reply_pushes, 2u);
  const std::vector<sim::Time> want{10027, 10027};
  EXPECT_EQ(done_at, want);
}

// (c) A channel whose request is pending when it migrates keeps its place
// in the ready set: the thief serves it. Orphan claim: worker 0 is down
// before ch0's request is posted, so ch0 is marked on worker 0 and claimed
// by worker 1 with the request still on the wire. Load steal: worker 0 sits
// in ch3's 20 us visit while ch0's request lands behind it, and idle worker
// 1 steals the backlogged ch0.
TEST(ReadySetTest, StolenReadyChannelIsServedByTheThief) {
  ServerOptions so;
  so.multicore = true;
  {
    Cluster c;
    RpcServer server(*c.fabric, *c.server_node, 2, so);
    std::vector<Dispatch> log;
    RegisterLogged(server, c.engine, &log);
    Channel* orphan = server.AcceptChannel(*c.client_node, RfpOptions{}, 0);
    server.AcceptChannel(*c.client_node, RfpOptions{}, 1);
    server.Start();
    server.CrashThread(0);
    c.engine.Spawn(TaggedCall(orphan, kEcho, "orphan"));
    c.engine.RunUntil(sim::Micros(100));
    server.Stop();
    EXPECT_EQ(server.thread_steals(1), 1u);
    const std::vector<Dispatch> want{{"orphan", 1, 1110}};
    EXPECT_EQ(log, want);
  }
  {
    Cluster c;
    RpcServer server(*c.fabric, *c.server_node, 2, so);
    std::vector<Dispatch> log;
    RegisterLogged(server, c.engine, &log);
    // ch0 is window 2, so its two requests reach kStealMinBacklog.
    RfpOptions window2;
    window2.window = 2;
    std::vector<Channel*> ch;
    for (const int owner : {0, 1, 0, 0}) {
      ch.push_back(
          server.AcceptChannel(*c.client_node, ch.empty() ? window2 : RfpOptions{}, owner));
    }
    server.Start();
    c.engine.Spawn(TaggedCall(ch[3], kSlow, "slow"));
    c.engine.ScheduleAt(sim::Micros(5), [&] {
      c.engine.Spawn(TaggedCall(ch[0], kEcho, "stolen0"));
      c.engine.Spawn(TaggedCall(ch[0], kEcho, "stolen1"));
    });
    c.engine.RunUntil(sim::Micros(100));
    server.Stop();
    EXPECT_EQ(server.thread_steals(1), 1u);
    const std::vector<Dispatch> want{
        {"slow", 0, 950}, {"stolen0", 1, 6950}, {"stolen1", 1, 7400}};
    EXPECT_EQ(log, want);
  }
}

// (d) Closing a channel takes it out of the ready set. ch1 is closed while
// its own visit is suspended (deferred to the visit's end); ch2 is closed
// while its request waits behind that visit, ready but not yet visited.
// The sweep goes on serving ch0 afterwards, and never visits a closed one.
TEST(ReadySetTest, CloseTakesAReadyChannelOutOfTheSweep) {
  Cluster c;
  RpcServer server(*c.fabric, *c.server_node, 1);
  std::vector<Dispatch> log;
  RegisterLogged(server, c.engine, &log);
  std::vector<Channel*> ch;
  for (int i = 0; i < 3; ++i) {
    ch.push_back(server.AcceptChannel(*c.client_node, RfpOptions{}, 0));
  }
  server.Start();
  // Fire-and-forget requests: no client actor touches ch1 or ch2 once its
  // WRITE completed, as CloseChannel's contract requires.
  for (const int i : {1, 2}) {
    c.engine.Spawn([](Channel* channel, uint16_t rpc_id, std::string tag) -> sim::Task<void> {
      RpcClient client(channel);
      (void)co_await client.SubmitCall(rpc_id, AsBytes(tag));
    }(ch[static_cast<size_t>(i)], i == 1 ? kSlow : kEcho, "ch" + std::to_string(i)));
  }
  bool deferred = false;
  bool immediate = false;
  c.engine.ScheduleAt(sim::Micros(10), [&] {
    deferred = server.CloseChannel(ch[1]);
    immediate = server.CloseChannel(ch[2]);
  });
  c.engine.ScheduleAt(sim::Micros(30), [&] { c.engine.Spawn(TaggedCall(ch[0], kEcho, "ch0")); });
  c.engine.RunUntil(sim::Millis(1));
  server.Stop();
  EXPECT_TRUE(deferred);
  EXPECT_TRUE(immediate);
  EXPECT_EQ(server.channels_closed(), 2u);
  EXPECT_EQ(server.channels_owned_by(0), 1);
  const std::vector<Dispatch> want{{"ch1", 0, 950}, {"ch0", 0, 30980}};
  EXPECT_EQ(log, want);
}

// A BUSY-shed request leaves its channel idle; the client's re-issue after
// the backoff is a request WRITE like any other and must bring the channel
// back into the sweep. One more request than kAdmissionBudget meets one
// sweep, so the last is shed and re-issued.
TEST(ReadySetTest, ReissueAfterBusyIsServed) {
  Cluster c;
  ServerOptions so;
  so.admission_control = true;
  so.overload_hi_watermark_ns = 1;
  so.overload_lo_watermark_ns = 0;
  RpcServer server(*c.fabric, *c.server_node, 1, so);
  std::vector<Dispatch> log;
  RegisterLogged(server, c.engine, &log);
  std::vector<Channel*> ch;
  for (int i = 0; i <= kAdmissionBudget; ++i) {
    ch.push_back(server.AcceptChannel(*c.client_node, RfpOptions{}, 0));
  }
  server.Start();
  c.engine.Spawn(TaggedCall(ch[0], kSlow, "first"));
  for (int i = 1; i < kAdmissionBudget; ++i) {
    c.engine.Spawn(TaggedCall(ch[static_cast<size_t>(i)], kEcho, "ch" + std::to_string(i)));
  }
  c.engine.Spawn(TaggedCall(ch.back(), kEcho, "shed"));
  c.engine.RunUntil(sim::Millis(1));
  server.Stop();
  EXPECT_EQ(server.requests_shed_admission(), 1u);
  EXPECT_EQ(ch.back()->stats().reissues, 1u);
  const std::vector<Dispatch> want{{"first", 0, 1050}, {"ch1", 0, 21200}, {"ch2", 0, 21650},
                                   {"ch3", 0, 22100},  {"shed", 0, 26660}};
  EXPECT_EQ(log, want);
}

}  // namespace
}  // namespace rfp
