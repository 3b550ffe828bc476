// The fault matrix (ISSUE acceptance criteria): for every fault class of
// src/fault/, a cluster of fault-tolerant channels must
//   (a) complete every outstanding request with a correct, uncorrupted
//       response (drivers re-derive the expected payload and count
//       mismatches — always zero), and
//   (b) be deterministic: two runs with the same seed produce identical
//       fingerprints (op counts, recovery stats, per-call latency stream,
//       final virtual time).
// A Jakiro KV case repeats the same property end-to-end through the store.

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/kv/jakiro.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/rpc.h"
#include "src/rfp/wire.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/time.h"
#include "src/workload/ycsb.h"

namespace fault {
namespace {

constexpr int kServerThreads = 2;
constexpr int kClients = 4;
constexpr int kCallsPerClient = 100;
constexpr uint32_t kResponseBytes = 32;
const sim::Time kFaultStart = sim::Micros(50);
const sim::Time kFaultWindow = sim::Micros(150);

std::byte ExpectedByte(std::span<const std::byte> req, size_t i) {
  return req[i % req.size()] ^ static_cast<std::byte>(static_cast<uint8_t>(i * 73 + 11));
}

struct Fingerprint {
  int completed = 0;
  uint64_t mismatches = 0;
  uint64_t injected = 0;
  uint64_t calls = 0;
  uint64_t reconnects = 0;
  uint64_t reissues = 0;
  uint64_t corrupt_fetches = 0;
  uint64_t fetch_timeouts = 0;
  uint64_t switches_to_reply = 0;
  uint64_t latency_checksum = 0;
  sim::Time final_time = 0;

  bool operator==(const Fingerprint&) const = default;
};

sim::Task<void> Driver(sim::Engine& eng, rfp::RpcClient* client, Fingerprint* fp) {
  std::vector<std::byte> req(8);
  std::vector<std::byte> resp(256);
  for (int n = 1; n <= kCallsPerClient; ++n) {
    for (size_t i = 0; i < req.size(); ++i) {
      req[i] = static_cast<std::byte>(static_cast<uint8_t>(static_cast<uint64_t>(n) >> (8 * i)));
    }
    const sim::Time start = eng.now();
    const size_t got = co_await client->Call(1, req, resp);
    if (got != kResponseBytes) {
      ++fp->mismatches;
    } else {
      for (size_t i = 0; i < kResponseBytes; ++i) {
        if (resp[i] != ExpectedByte(req, i)) {
          ++fp->mismatches;
          break;
        }
      }
    }
    fp->latency_checksum =
        sim::Mix64(fp->latency_checksum ^ static_cast<uint64_t>(eng.now() - start));
  }
  ++fp->completed;
}

Fingerprint RunMatrix(FaultKind kind, uint64_t seed) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = seed;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_a = fabric.AddNode("client_a");
  rdma::Node& client_b = fabric.AddNode("client_b");
  rdma::Node* client_nodes[2] = {&client_a, &client_b};

  rfp::RpcServer server(fabric, server_node, kServerThreads);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> rfp::HandlerResult {
    for (size_t i = 0; i < kResponseBytes; ++i) {
      resp[i] = ExpectedByte(req, i);
    }
    return rfp::HandlerResult{kResponseBytes, sim::Nanos(800)};
  });

  rfp::RfpOptions options;
  options.fetch_timeout_ns = sim::Micros(40);
  options.fetch_backoff_initial_ns = sim::Micros(1);
  options.checksum_responses = true;

  std::vector<rfp::Channel*> channels;
  std::vector<std::unique_ptr<rfp::RpcClient>> stubs;
  for (int t = 0; t < kClients; ++t) {
    channels.push_back(server.AcceptChannel(*client_nodes[t % 2], options, t % kServerThreads));
    stubs.push_back(std::make_unique<rfp::RpcClient>(channels.back()));
  }
  server.Start();

  FaultInjector injector(fabric);
  injector.BindServer(server_node.id(), &server);
  FaultPlan plan;
  switch (kind) {
    case FaultKind::kNicStall:
      plan.NicStall(kFaultStart, server_node.id(), true, sim::Micros(30))
          .NicStall(kFaultStart + sim::Micros(60), server_node.id(), false, sim::Micros(30));
      break;
    case FaultKind::kNicDegrade:
      plan.NicDegrade(kFaultStart, server_node.id(), true, 8.0, kFaultWindow);
      break;
    case FaultKind::kLinkBurst:
      plan.LinkBurst(kFaultStart, server_node.id(), client_a.id(), 0.5, sim::Micros(2),
                     kFaultWindow)
          .LinkBurst(kFaultStart, server_node.id(), client_b.id(), 0.5, sim::Micros(2),
                     kFaultWindow);
      break;
    case FaultKind::kServerCrash:
      plan.ServerCrash(kFaultStart, server_node.id(), /*thread=*/0, kFaultWindow);
      break;
    case FaultKind::kQpError:
      plan.QpError(kFaultStart, server_node.id(), client_a.id())
          .QpError(kFaultStart, server_node.id(), client_b.id())
          .QpError(kFaultStart + sim::Micros(80), server_node.id(), client_a.id());
      break;
    case FaultKind::kCorruptRegion:
      for (int i = 0; i < 15; ++i) {
        for (size_t c = 0; c < channels.size(); ++c) {
          plan.CorruptRegion(kFaultStart + i * sim::Micros(10), channels[c]->server_rkey(),
                             channels[c]->response_offset() + rfp::kHeaderBytes, 16,
                             /*seed=*/seed + static_cast<uint64_t>(i) * 100 + c);
        }
      }
      break;
  }
  injector.Arm(plan);

  Fingerprint fp;
  for (int t = 0; t < kClients; ++t) {
    engine.Spawn(Driver(engine, stubs[static_cast<size_t>(t)].get(), &fp));
  }
  engine.RunUntil(sim::Millis(50));
  server.Stop();

  for (rfp::Channel* channel : channels) {
    const rfp::Channel::Stats& s = channel->stats();
    fp.calls += s.calls;
    fp.reconnects += s.reconnects;
    fp.reissues += s.reissues;
    fp.corrupt_fetches += s.corrupt_fetches;
    fp.fetch_timeouts += s.fetch_timeouts;
    fp.switches_to_reply += s.switches_to_reply;
  }
  fp.injected = injector.injected();
  fp.final_time = engine.now();
  return fp;
}

class FaultMatrixTest : public ::testing::TestWithParam<FaultKind> {};

TEST_P(FaultMatrixTest, AllRequestsCompleteCorrectlyAndDeterministically) {
  const FaultKind kind = GetParam();
  const Fingerprint a = RunMatrix(kind, 17);

  // (a) No lost or corrupted responses: every driver finished its full call
  // budget and every response validated byte-for-byte.
  EXPECT_EQ(a.completed, kClients);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_GT(a.injected, 0u);
  EXPECT_EQ(a.calls, static_cast<uint64_t>(kClients) * kCallsPerClient);

  // Per-class recovery evidence: the fault was actually felt, not scheduled
  // into dead air.
  switch (kind) {
    case FaultKind::kQpError:
      EXPECT_GT(a.reconnects, 0u);
      break;
    case FaultKind::kCorruptRegion:
      EXPECT_GT(a.corrupt_fetches, 0u);
      EXPECT_GT(a.reissues, 0u);
      break;
    case FaultKind::kServerCrash:
      EXPECT_GT(a.fetch_timeouts, 0u);
      EXPECT_GT(a.switches_to_reply, 0u);
      break;
    default:
      break;  // stall/degrade/burst only slow the fabric down
  }

  // (b) Bit-identical replay: same seed, same fingerprint (including the
  // per-call latency stream and the final virtual clock).
  const Fingerprint b = RunMatrix(kind, 17);
  EXPECT_EQ(a, b);

  // A different seed must perturb the schedule (service jitter draws).
  const Fingerprint c = RunMatrix(kind, 18);
  EXPECT_NE(a.latency_checksum, c.latency_checksum);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, FaultMatrixTest,
                         ::testing::Values(FaultKind::kNicStall, FaultKind::kNicDegrade,
                                           FaultKind::kLinkBurst, FaultKind::kServerCrash,
                                           FaultKind::kQpError, FaultKind::kCorruptRegion),
                         [](const ::testing::TestParamInfo<FaultKind>& param_info) {
                           return FaultKindName(param_info.param);
                         });

// Corrupting the REQUEST ring (size/seq of the request header) makes the
// server read garbage sizes and phantom frames. Those must become counted
// malformed drops — never a throw out of ServeLoop that kills the sweep
// actor — and every call must still complete through the client's
// timeout/re-issue repair (a fresh WRITE rewrites the header). Determinism
// of the recovery schedule is pinned like the other matrix classes.
struct MalformedFingerprint {
  int completed = 0;
  uint64_t mismatches = 0;
  uint64_t malformed = 0;
  uint64_t reissues = 0;
  uint64_t latency_checksum = 0;
  sim::Time final_time = 0;

  bool operator==(const MalformedFingerprint&) const = default;
};

MalformedFingerprint RunRequestCorruption(uint64_t seed) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = seed;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_a = fabric.AddNode("client_a");
  rdma::Node& client_b = fabric.AddNode("client_b");
  rdma::Node* client_nodes[2] = {&client_a, &client_b};

  rfp::RpcServer server(fabric, server_node, kServerThreads);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> rfp::HandlerResult {
    for (size_t i = 0; i < kResponseBytes; ++i) {
      resp[i] = ExpectedByte(req, i);
    }
    return rfp::HandlerResult{kResponseBytes, sim::Nanos(800)};
  });

  rfp::RfpOptions options;
  // Forced fetch: a destroyed request header is repaired by the timeout
  // re-issue path, without the adaptive fall-back dance.
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  options.fetch_timeout_ns = sim::Micros(40);
  options.fetch_backoff_initial_ns = sim::Micros(1);
  options.checksum_responses = true;

  std::vector<rfp::Channel*> channels;
  std::vector<std::unique_ptr<rfp::RpcClient>> stubs;
  for (int t = 0; t < kClients; ++t) {
    channels.push_back(server.AcceptChannel(*client_nodes[t % 2], options, t % kServerThreads));
    stubs.push_back(std::make_unique<rfp::RpcClient>(channels.back()));
  }
  server.Start();

  FaultInjector injector(fabric);
  injector.BindServer(server_node.id(), &server);
  FaultPlan plan;
  for (int i = 0; i < 15; ++i) {
    for (size_t c = 0; c < channels.size(); ++c) {
      // First 6 bytes of request slot 0: size_status + seq (not the mode
      // byte, which carries the paradigm and has its own 1-byte-WRITE path).
      plan.CorruptRegion(kFaultStart + i * sim::Micros(10), channels[c]->server_rkey(),
                         /*offset=*/channels[c]->request_offset(), /*length=*/6,
                         /*seed=*/seed + static_cast<uint64_t>(i) * 100 + c);
    }
  }
  injector.Arm(plan);

  Fingerprint fp;
  for (int t = 0; t < kClients; ++t) {
    engine.Spawn(Driver(engine, stubs[static_cast<size_t>(t)].get(), &fp));
  }
  engine.RunUntil(sim::Millis(50));
  server.Stop();

  MalformedFingerprint out;
  out.completed = fp.completed;
  out.mismatches = fp.mismatches;
  out.malformed = server.malformed_requests();
  for (rfp::Channel* channel : channels) {
    out.reissues += channel->stats().reissues;
  }
  out.latency_checksum = fp.latency_checksum;
  out.final_time = engine.now();
  return out;
}

TEST(FaultMatrixMalformedTest, RequestCorruptionIsCountedDropAndServerSurvives) {
  const MalformedFingerprint a = RunRequestCorruption(17);
  EXPECT_EQ(a.completed, kClients);
  EXPECT_EQ(a.mismatches, 0u);
  // The corruption was felt as malformed frames, and the repair path ran.
  // Pinned exactly: a corrupted header stays malformed until the client's
  // re-issue rewrites it, and every sweep in between counts it again. A
  // sweep that missed the corruption (no ready-set mark from the injector)
  // counts fewer.
  EXPECT_EQ(a.malformed, 344u);
  EXPECT_EQ(a.reissues, 3u);
  // Same seed, same recovery schedule.
  const MalformedFingerprint b = RunRequestCorruption(17);
  EXPECT_EQ(a, b);
}

// End-to-end through the KV store: a fault-tolerant Jakiro cluster under a
// mixed scripted plan returns only verified values and replays bit-identically.
struct KvFingerprint {
  int completed = 0;
  uint64_t verify_failures = 0;
  uint64_t ops = 0;
  uint64_t reconnects = 0;
  uint64_t reissues = 0;
  uint64_t corrupt_fetches = 0;
  sim::Time final_time = 0;

  bool operator==(const KvFingerprint&) const = default;
};

KvFingerprint RunKvMatrix(uint64_t seed) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = seed;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");

  kv::JakiroConfig config;
  config.server_threads = kServerThreads;
  config = kv::JakiroConfig::Build(config).FaultTolerant();
  kv::JakiroServer server(fabric, server_node, config);

  workload::WorkloadSpec spec;
  spec.num_keys = 2048;
  spec.get_fraction = 0.9;
  spec.seed = seed;
  std::vector<std::byte> key(16);
  std::vector<std::byte> value(64);
  for (uint64_t id = 0; id < spec.num_keys; ++id) {
    workload::MakeKey(id, key);
    workload::FillValue(id, std::span<std::byte>(value.data(), 32));
    server.partition(server.OwnerThread(key)).Put(key,
                                                  std::span<const std::byte>(value.data(), 32));
  }

  std::vector<std::unique_ptr<kv::JakiroClient>> clients;
  KvFingerprint fp;
  for (int t = 0; t < 2; ++t) {
    clients.push_back(std::make_unique<kv::JakiroClient>(server, client_node));
    engine.Spawn([](kv::JakiroClient* c, workload::WorkloadSpec sp, int id,
                    KvFingerprint* out) -> sim::Task<void> {
      workload::Generator gen(sp, static_cast<uint64_t>(id));
      std::vector<std::byte> k(16);
      std::vector<std::byte> v(256);
      std::vector<std::byte> o(256);
      for (int i = 0; i < 150; ++i) {
        const workload::Op op = gen.Next();
        workload::MakeKey(op.key_id, k);
        if (op.type == workload::OpType::kGet) {
          std::optional<size_t> got = co_await c->Get(k, o);
          if (got.has_value() &&
              !workload::CheckValue(op.key_id, std::span<const std::byte>(o.data(), *got))) {
            ++out->verify_failures;
          }
        } else {
          workload::FillValue(op.key_id, std::span<std::byte>(v.data(), 32));
          co_await c->Put(k, std::span<const std::byte>(v.data(), 32));
        }
        ++out->ops;
      }
      ++out->completed;
    }(clients.back().get(), spec, t, &fp));
  }
  server.Start();

  FaultInjector injector(fabric);
  injector.BindServer(server_node.id(), &server.rpc());
  FaultPlan plan;
  plan.QpError(sim::Micros(60), server_node.id(), client_node.id())
      .NicDegrade(sim::Micros(120), server_node.id(), true, 6.0, sim::Micros(100))
      .ServerCrash(sim::Micros(300), server_node.id(), 0, sim::Micros(120));
  for (int i = 0; i < 10; ++i) {
    rfp::Channel* target = clients[0]->channel(i % kServerThreads);
    plan.CorruptRegion(sim::Micros(60) + i * sim::Micros(30), target->server_rkey(),
                       target->response_offset() + rfp::kHeaderBytes, 16, seed + static_cast<uint64_t>(i));
  }
  injector.Arm(plan);

  engine.RunUntil(sim::Millis(100));
  server.Stop();

  for (const auto& client : clients) {
    const rfp::Channel::Stats stats = client->MergedChannelStats();
    fp.reconnects += stats.reconnects;
    fp.reissues += stats.reissues;
    fp.corrupt_fetches += stats.corrupt_fetches;
  }
  fp.final_time = engine.now();
  return fp;
}

TEST(FaultMatrixKvTest, JakiroSurvivesMixedPlanWithVerifiedValues) {
  const KvFingerprint a = RunKvMatrix(23);
  EXPECT_EQ(a.completed, 2);
  EXPECT_EQ(a.verify_failures, 0u);
  EXPECT_EQ(a.ops, 300u);
  EXPECT_GT(a.reconnects, 0u);

  const KvFingerprint b = RunKvMatrix(23);
  EXPECT_EQ(a, b);
}

// Recovery-traffic accounting: a timed-out forced-fetch call re-issues its
// request, but RoundTripsPerCall keeps its Table-3 meaning — one primary
// WRITE per call; the re-issue and the abandoned attempt's READs move to the
// recovery counters instead of inflating the primary metric.
TEST(FaultRecoveryAccountingTest, ReissuesDoNotInflateRoundTripsPerCall) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client_node = fabric.AddNode("client");
  rdma::Node& server_node = fabric.AddNode("server");

  rfp::RfpOptions options;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  options.fetch_timeout_ns = sim::Micros(20);
  rfp::Channel channel(fabric, client_node, server_node, options);

  // The server is dark for the first 60 us — past the client's 20 us fetch
  // deadline, forcing re-issues — then serves normally. Polling only after
  // the outage means it reads the *latest* re-issued request (current seq),
  // exactly like a restarted RpcServer sweep would.
  engine.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> buf(1024);
    co_await eng.Sleep(sim::Micros(60));
    int served = 0;
    while (served < 2) {
      size_t n = 0;
      if (ch->TryServerRecv(buf, &n)) {
        co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
        ++served;
      } else {
        co_await eng.Sleep(sim::Nanos(200));
      }
    }
  }(engine, &channel));
  engine.Spawn([](rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> out(256);
    for (int i = 0; i < 2; ++i) {
      std::byte msg[4] = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
      co_await ch->ClientSend(msg);
      const size_t got = co_await ch->ClientRecv(out);
      EXPECT_EQ(got, 4u);
    }
  }(&channel));
  engine.RunUntil(sim::Millis(5));

  const rfp::Channel::Stats& s = channel.stats();
  EXPECT_EQ(s.calls, 2u);
  EXPECT_GE(s.fetch_timeouts, 1u);
  EXPECT_GE(s.reissues, 1u);
  // The pinned invariant: exactly one primary WRITE per issued call, with
  // the re-issued WRITEs and the abandoned attempts' READs accounted apart.
  EXPECT_EQ(s.request_writes, s.calls);
  EXPECT_EQ(s.recovery_request_writes, s.reissues);
  EXPECT_GT(s.recovery_fetch_reads, 0u);
  EXPECT_GT(s.RecoveryRoundTripsPerCall(), 0.0);
  // Primary round trips stay at sane echo-call magnitude: 1 WRITE + a
  // bounded number of fetch READs per call, nowhere near the ~4 extra
  // READs/call the 60 us outage generated in recovery traffic.
  EXPECT_LT(s.RoundTripsPerCall(),
            1.0 + static_cast<double>(options.retry_threshold) + 2.0);
}

// The switch race under a crash: call 1 completes in fetch mode, so the
// server still holds its response un-pushed; the serving thread then
// crashes, call 2's WRITE lands into the dark thread, the client times out
// and switches to server-reply mid-call. After restart the server first
// resends the *stale* call-1 response (NeedsReplyResend / post-switch
// resend), which the client must ignore by sequence before call 2's real
// response arrives.
TEST(FaultSwitchRaceTest, StaleResendAfterCrashAndSwitchIsIgnored) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");

  rfp::RpcServer server(fabric, server_node, 1);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> rfp::HandlerResult {
    // Echo with a marker so call 1 and call 2 responses are distinguishable.
    std::memcpy(resp.data(), req.data(), req.size());
    return rfp::HandlerResult{req.size(), sim::Nanos(500)};
  });

  rfp::RfpOptions options;
  options.fetch_timeout_ns = sim::Micros(20);  // timeout-driven switch path
  rfp::Channel* channel = server.AcceptChannel(client_node, options, 0);
  rfp::RpcClient stub(channel);
  server.Start();

  engine.ScheduleAt(sim::Micros(10), [&server] { server.CrashThread(0); });
  engine.ScheduleAt(sim::Micros(80), [&server] { server.RestartThread(0); });

  std::vector<size_t> got_sizes;
  std::vector<std::byte> first_bytes;
  engine.Spawn([](sim::Engine& eng, rfp::RpcClient* client, std::vector<size_t>* sizes,
                  std::vector<std::byte>* firsts) -> sim::Task<void> {
    std::vector<std::byte> resp(256);
    for (int call = 1; call <= 2; ++call) {
      std::byte req[8];
      for (size_t i = 0; i < 8; ++i) {
        req[i] = static_cast<std::byte>(static_cast<uint8_t>(static_cast<size_t>(call * 16) + i));
      }
      const size_t got = co_await client->Call(1, req, resp);
      sizes->push_back(got);
      firsts->push_back(resp[0]);
      if (call == 1) {
        // Issue call 2 only once the thread is dark, so its request sits
        // pending across the crash window.
        co_await eng.Sleep(sim::Micros(12));
      }
    }
  }(engine, &stub, &got_sizes, &first_bytes));
  engine.RunUntil(sim::Millis(5));
  server.Stop();

  ASSERT_EQ(got_sizes.size(), 2u);
  EXPECT_EQ(got_sizes[0], 8u);
  EXPECT_EQ(got_sizes[1], 8u);
  // Each call saw its own response: the stale post-switch resend of call 1
  // carried a dead sequence number and was dropped by the client.
  EXPECT_EQ(first_bytes[0], std::byte{16});
  EXPECT_EQ(first_bytes[1], std::byte{32});
  const rfp::Channel::Stats& s = channel->stats();
  EXPECT_GE(s.fetch_timeouts, 1u);
  EXPECT_GE(s.switches_to_reply, 1u);
  EXPECT_EQ(server.thread_crashes(), 1u);
}

// Composition: a crash in the middle of an overloaded, admission-controlled
// run. Shedding continues on the surviving side, client deadlines bound the
// damage on the dark one, and the whole thing replays deterministically.
struct OverloadCrashFingerprint {
  uint64_t completed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t mismatches = 0;
  uint64_t shed_admission = 0;
  uint64_t shed_deadline = 0;
  uint64_t busy_responses = 0;
  uint64_t crashes = 0;
  sim::Time final_time = 0;

  bool operator==(const OverloadCrashFingerprint&) const = default;
};

// More channels per thread than a sweep admits (rfp::kAdmissionBudget), so
// an overloaded sweep sheds.
constexpr int kOverloadChannels = kServerThreads * (rfp::kAdmissionBudget + 2);
constexpr int kOverloadCalls = 40;

OverloadCrashFingerprint RunOverloadCrash(uint64_t seed) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.seed = seed;
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server_node = fabric.AddNode("server");
  rdma::Node& client_node = fabric.AddNode("client");

  rfp::ServerOptions server_options;
  server_options.admission_control = true;
  server_options.overload_hi_watermark_ns = sim::Micros(10);
  server_options.overload_lo_watermark_ns = sim::Micros(2);
  rfp::RpcServer server(fabric, server_node, kServerThreads, server_options);
  server.RegisterHandler(1, [](const rfp::HandlerContext&, std::span<const std::byte> req,
                               std::span<std::byte> resp) -> rfp::HandlerResult {
    for (size_t i = 0; i < kResponseBytes; ++i) {
      resp[i] = ExpectedByte(req, i);
    }
    return rfp::HandlerResult{kResponseBytes, sim::Micros(8)};
  });

  rfp::RfpOptions options;
  options.call_deadline_ns = sim::Micros(120);
  options.breaker_enabled = true;

  std::vector<rfp::Channel*> channels;
  std::vector<std::unique_ptr<rfp::RpcClient>> stubs;
  for (int t = 0; t < kOverloadChannels; ++t) {
    channels.push_back(server.AcceptChannel(client_node, options, t % kServerThreads));
    stubs.push_back(std::make_unique<rfp::RpcClient>(channels.back()));
  }
  server.Start();

  FaultInjector injector(fabric);
  injector.BindServer(server_node.id(), &server);
  FaultPlan plan;
  plan.ServerCrash(sim::Micros(200), server_node.id(), /*thread=*/0, sim::Micros(150));
  injector.Arm(plan);

  OverloadCrashFingerprint fp;
  for (int t = 0; t < kOverloadChannels; ++t) {
    engine.Spawn([](rfp::RpcClient* client, OverloadCrashFingerprint* out) -> sim::Task<void> {
      std::vector<std::byte> req(8, std::byte{0x7e});
      std::vector<std::byte> resp(256);
      for (int i = 0; i < kOverloadCalls; ++i) {
        try {
          const size_t got = co_await client->Call(1, req, resp);
          ++out->completed;
          if (got != kResponseBytes) {
            ++out->mismatches;
          } else {
            for (size_t b = 0; b < kResponseBytes; ++b) {
              if (resp[b] != ExpectedByte(req, b)) {
                ++out->mismatches;
                break;
              }
            }
          }
        } catch (const rfp::DeadlineExceeded&) {
          ++out->deadline_exceeded;
        }
      }
    }(stubs[static_cast<size_t>(t)].get(), &fp));
  }
  engine.RunUntil(sim::Millis(50));
  server.Stop();

  for (rfp::Channel* channel : channels) {
    fp.busy_responses += channel->stats().busy_responses;
  }
  fp.shed_admission = server.requests_shed_admission();
  fp.shed_deadline = server.requests_shed_deadline();
  fp.crashes = server.thread_crashes();
  fp.final_time = engine.now();
  return fp;
}

TEST(FaultOverloadCompositionTest, CrashMidOverloadShedsAndReplaysDeterministically) {
  const OverloadCrashFingerprint a = RunOverloadCrash(31);
  // Every driver resolved all its calls one way or the other, correctly.
  EXPECT_EQ(a.completed + a.deadline_exceeded,
            static_cast<uint64_t>(kOverloadChannels * kOverloadCalls));
  EXPECT_GT(a.completed, 0u);
  EXPECT_EQ(a.mismatches, 0u);
  // Overload protection and the fault both actually bit.
  EXPECT_GT(a.shed_admission, 0u);
  EXPECT_GT(a.busy_responses, 0u);
  EXPECT_EQ(a.crashes, 1u);
  // The dark thread's channels hit their deadlines instead of hanging.
  EXPECT_GT(a.deadline_exceeded, 0u);

  const OverloadCrashFingerprint b = RunOverloadCrash(31);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace fault
