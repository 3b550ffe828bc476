#include "perfbench/workloads.h"

#include <bit>
#include <chrono>
#include <cstring>
#include <exception>
#include <optional>
#include <span>
#include <string>

#include "src/rfp/options.h"
#include "src/sim/random.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint16_t kEchoRpc = 1;
constexpr uint32_t kEchoBytes = 32;
constexpr int kClientShift = 40;   // call_id = (replica << 56) | (client << 40) | sequence
constexpr int kReplicaShift = 56;

// echo_pipelined: bench_ext_multicore's 4-worker, window-64 point.
constexpr int kPipelineWindow = 64;
constexpr sim::Time kPipelineProcessNs = 150;

// echo_phased: process times either side of the paper's 7 us fetch-vs-reply
// crossover, in phases of a few hundred calls.
constexpr sim::Time kShortProcessNs = 1000;
constexpr sim::Time kLongProcessNs = 12000;
constexpr int64_t kPhaseMinCalls = 200;
constexpr int64_t kPhaseMaxCalls = 400;

// Salts that split the benchmark seed into independent RNG seeds.
constexpr uint64_t kFabricSalt = 0xFAB1;
constexpr uint64_t kGeneratorSalt = 0x6E4E;
constexpr uint64_t kStragglerSalt = 0x5747;
constexpr uint64_t kBreakerSalt = 0xB4EA;
constexpr uint64_t kPhaseSalt = 0x9A5E;

struct Shape {
  int client_nodes;
  int clients;
  int server_threads;
};

Shape ShapeOf(WorkloadId id) {
  switch (id) {
    case WorkloadId::kEchoPipelined:
      return {2, 8, 4};
    case WorkloadId::kEchoPhased:
      return {7, 35, 16};
    default:
      return {7, 35, 6};
  }
}

bool IsKv(WorkloadId id) { return id == WorkloadId::kKvSmallGet || id == WorkloadId::kKvMixedPut; }

uint64_t SubSeed(uint64_t seed, uint64_t salt) { return sim::Mix64(seed ^ sim::Mix64(salt)); }

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

workload::WorkloadSpec KvSpec(const ClusterParams& p) {
  workload::WorkloadSpec spec;
  spec.num_keys = 1 << 18;
  spec.key_size = 16;
  spec.distribution = workload::KeyDistribution::kUniform;
  spec.seed = SubSeed(p.seed, kGeneratorSalt);
  if (p.workload == WorkloadId::kKvMixedPut) {
    spec.get_fraction = 0.5;
    spec.value_size = workload::ValueSizeSpec::LogUniform(32, 8192);
  } else {
    spec.get_fraction = 0.95;
    spec.value_size = workload::ValueSizeSpec::Fixed(32);
  }
  return spec;
}

rfp::RfpOptions ChannelOptions(const ClusterParams& p) {
  rfp::RfpOptions o;
  o.breaker_seed = SubSeed(p.seed, kBreakerSalt);
  switch (p.workload) {
    case WorkloadId::kKvMixedPut:
      o.fetch_size = 640;  // the paper's pre-run choice for mixed sizes (Fig 17)
      break;
    case WorkloadId::kEchoPipelined:
      o.window = kPipelineWindow;
      o.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
      o.coalesced_fetch = true;
      o.max_message_bytes = kEchoBytes;  // ring blocks price the spanning READ
      o.fetch_backoff_initial_ns = 1000;
      o.fetch_backoff_max_ns = 8000;
      break;
    default:
      break;
  }
  return o;
}

// Same per-key preload sizes as the figure benches.
uint32_t PreloadValueSize(const workload::WorkloadSpec& spec, uint64_t key_id) {
  const workload::ValueSizeSpec& v = spec.value_size;
  if (v.kind != workload::ValueSizeSpec::Kind::kLogUniform) {
    return v.fixed;
  }
  uint64_t steps = 0;
  for (uint32_t s = v.lo; s < v.hi; s <<= 1) {
    ++steps;
  }
  return v.lo << (sim::Mix64(key_id) % (steps + 1));
}

// Every value size of these workloads is a power of two, so a key's written
// sizes fit one bit each.
void MarkWritten(Cluster& c, uint64_t key_id, uint32_t size) {
  c.written_sizes[key_id] |= static_cast<uint16_t>(1u << std::countr_zero(size));
}

bool SizeWritten(const Cluster& c, uint64_t key_id, size_t size) {
  return std::has_single_bit(size) && size < (size_t{1} << 16) &&
         (c.written_sizes[key_id] & (1u << std::countr_zero(size))) != 0;
}

// Echo response bytes are a function of the call id, so a response that
// belongs to another call (or slot) fails the check.
void FillEcho(uint64_t call_id, std::span<std::byte> out) {
  const uint64_t base = sim::Mix64(call_id);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((base >> ((i & 7) * 8)) ^ i);
  }
}

bool CheckEcho(uint64_t call_id, size_t got, std::span<const std::byte> bytes) {
  if (got != kEchoBytes) {
    return false;
  }
  std::byte expected[kEchoBytes];
  FillEcho(call_id, expected);
  return std::memcmp(expected, bytes.data(), kEchoBytes) == 0;
}

// Request: [u64 call id][optional u32 process ns]; response: 32 echo bytes.
rfp::Handler EchoHandler(Cluster* c, sim::Time default_process_ns) {
  return [c, default_process_ns](const rfp::HandlerContext& ctx, std::span<const std::byte> req,
                                 std::span<std::byte> resp) -> rfp::HandlerResult {
    ++c->echo_served;
    uint64_t call_id = 0;
    if (req.size() < sizeof(call_id) || resp.size() < kEchoBytes) {
      return {0, default_process_ns};
    }
    std::memcpy(&call_id, req.data(), sizeof(call_id));
    sim::Time process_ns = default_process_ns;
    if (req.size() >= sizeof(call_id) + sizeof(uint32_t)) {
      uint32_t p = 0;
      std::memcpy(&p, req.data() + sizeof(call_id), sizeof(p));
      process_ns = p;
    }
    FillEcho(call_id, resp.first(kEchoBytes));
    if (c->params.corrupt_every != 0 && c->echo_served % c->params.corrupt_every == 0) {
      resp[0] ^= std::byte{0x5a};
    }
    const sim::Time now = c->engine.now();
    if (now >= c->params.warmup_end && now < c->params.end) {
      c->handler_busy_ns[static_cast<size_t>(ctx.thread_index)] += process_ns;
    }
    return {kEchoBytes, process_ns};
  };
}

// Books one finished call for `client`.
void Finish(Cluster& c, uint32_t client, uint64_t seq, uint8_t kind, sim::Time issue, bool ok) {
  CallTally& tally = c.tallies[client];
  const sim::Time end = c.engine.now();
  ++tally.finished;
  if (!ok) {
    ++tally.failed;
  } else if (end >= c.params.warmup_end && end <= c.params.end) {
    tally.window_latency_ns.push_back(end - issue);
  }
  if (c.params.trace) {
    const uint64_t call_id = (uint64_t{c.params.replica} << kReplicaShift) |
                             (uint64_t{client} << kClientShift) | seq;
    c.spans.push_back(CallSpan{call_id, issue,
                               static_cast<uint32_t>(end - issue), kind,
                               static_cast<uint8_t>(ok ? 1 : 0)});
  }
}

// Closed loop, one call at a time (the paper's client thread).
sim::Task<void> KvDriver(Cluster* c, kv::JakiroClient* client, workload::Generator gen,
                         uint32_t id) {
  sim::Engine& eng = c->engine;
  const bool trace = c->params.trace;
  CallTally& tally = c->tallies[id];
  std::vector<std::byte> key(gen.spec().key_size);
  std::vector<std::byte> value(gen.spec().value_size.kind ==
                                       workload::ValueSizeSpec::Kind::kFixed
                                   ? gen.spec().value_size.fixed
                                   : gen.spec().value_size.hi);
  std::vector<std::byte> out(2 * value.size() + 64);
  uint64_t seq = 0;
  while (eng.now() < c->params.end) {
    const int64_t gen_start = trace ? HostNs() : 0;
    const workload::Op op = gen.Next();
    workload::MakeKey(op.key_id, key);
    const int64_t value_start = trace ? HostNs() : 0;
    if (trace) {
      tally.gen_ns += value_start - gen_start;
    }
    const bool is_get = op.type == workload::OpType::kGet;
    const sim::Time issue = eng.now();
    bool ok = false;
    try {
      if (is_get) {
        const std::optional<size_t> got = co_await client->Get(key, out);
        const int64_t check_start = trace ? HostNs() : 0;
        ok = got.has_value() && SizeWritten(*c, op.key_id, *got) &&
             workload::CheckValue(op.key_id, std::span<const std::byte>(out.data(), *got));
        if (trace) {
          tally.value_ns += HostNs() - check_start;
        }
      } else {
        const std::span<std::byte> v(value.data(), op.value_size);
        workload::FillValue(op.key_id, v);
        if (trace) {
          tally.value_ns += HostNs() - value_start;
        }
        MarkWritten(*c, op.key_id, op.value_size);
        ok = co_await client->Put(key, v);
      }
    } catch (const std::exception&) {
      ok = false;
    }
    Finish(*c, id, seq++, is_get ? 0 : 1, issue, ok);
  }
}

// Closed loop with a seeded schedule of short / long process-time phases.
sim::Task<void> PhasedDriver(Cluster* c, rfp::RpcClient* stub, uint32_t id) {
  sim::Engine& eng = c->engine;
  sim::Rng rng(sim::Mix64(SubSeed(c->params.seed, kPhaseSalt) + id));
  bool long_phase = rng.NextBounded(2) == 1;
  int64_t left = rng.NextInRange(kPhaseMinCalls, kPhaseMaxCalls);
  std::byte req[sizeof(uint64_t) + sizeof(uint32_t)];
  std::vector<std::byte> resp(kEchoBytes + 64);
  uint64_t seq = 0;
  while (eng.now() < c->params.end) {
    if (left-- == 0) {
      long_phase = !long_phase;
      left = rng.NextInRange(kPhaseMinCalls, kPhaseMaxCalls) - 1;
    }
    const uint64_t call_id = (uint64_t{id} << kClientShift) | seq;
    const uint32_t process_ns =
        static_cast<uint32_t>(long_phase ? kLongProcessNs : kShortProcessNs);
    std::memcpy(req, &call_id, sizeof(call_id));
    std::memcpy(req + sizeof(call_id), &process_ns, sizeof(process_ns));
    const sim::Time issue = eng.now();
    bool ok = false;
    try {
      const size_t got = co_await stub->Call(kEchoRpc, req, resp);
      ok = CheckEcho(call_id, got, resp);
    } catch (const std::exception&) {
      ok = false;
    }
    Finish(*c, id, seq++, long_phase ? 1 : 0, issue, ok);
  }
}

// bench_ext_multicore's windowed driver: post a burst in one doorbell batch,
// sleep an adaptive estimate of its service time, then await every call.
// Latency runs from each call's SubmitCall, not from its AwaitCall.
sim::Task<void> PipelinedDriver(Cluster* c, rfp::RpcClient* stub, uint32_t id) {
  sim::Engine& eng = c->engine;
  std::byte req[sizeof(uint64_t)];
  std::vector<std::vector<std::byte>> resp(kPipelineWindow, std::vector<std::byte>(kEchoBytes));
  std::vector<rfp::Channel::CallHandle> handles(kPipelineWindow);
  std::vector<sim::Time> submitted(kPipelineWindow);
  sim::Time pace = sim::Time{kPipelineWindow} * 400;
  uint64_t seq = 0;
  while (eng.now() < c->params.end) {
    const uint64_t first = seq;
    for (size_t i = 0; i < kPipelineWindow; ++i) {
      const uint64_t call_id = (uint64_t{id} << kClientShift) | (first + i);
      std::memcpy(req, &call_id, sizeof(call_id));
      submitted[i] = eng.now();
      handles[i] = co_await stub->SubmitCall(kEchoRpc, req);
    }
    co_await stub->channel()->FlushCalls();
    const sim::Time flushed = eng.now();
    if (pace > 0) {
      co_await eng.Sleep(pace);
    }
    for (size_t i = 0; i < kPipelineWindow; ++i) {
      const uint64_t call_id = (uint64_t{id} << kClientShift) | (first + i);
      bool ok = false;
      try {
        const size_t got = co_await stub->AwaitCall(handles[i], resp[i]);
        ok = CheckEcho(call_id, got, resp[i]);
      } catch (const std::exception&) {
        ok = false;
      }
      Finish(*c, id, seq++, 0, submitted[i], ok);
    }
    // Pace controller, unchanged from the multicore bench: an EWMA of the
    // burst's service time beyond one mopping-up sweep, biased downward.
    constexpr sim::Time kSweepCostNs = 2000;
    const sim::Time measured = eng.now() - flushed;
    const sim::Time target = measured > kSweepCostNs ? measured - kSweepCostNs : 0;
    pace = (7 * pace + target) / 8;
    pace = pace > 200 ? pace - 200 : 0;
  }
}

}  // namespace

bool ParseWorkload(std::string_view name, WorkloadId* id) {
  for (WorkloadId w : {WorkloadId::kKvSmallGet, WorkloadId::kKvMixedPut,
                       WorkloadId::kEchoPipelined, WorkloadId::kEchoPhased}) {
    if (name == WorkloadName(w)) {
      *id = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kKvSmallGet:
      return "kv_small_get";
    case WorkloadId::kKvMixedPut:
      return "kv_mixed_put";
    case WorkloadId::kEchoPipelined:
      return "echo_pipelined";
    case WorkloadId::kEchoPhased:
      return "echo_phased";
  }
  return "?";
}

sim::Time VirtualPerWallSecond(WorkloadId id) {
  switch (id) {
    case WorkloadId::kKvSmallGet:
      return sim::Millis(27);
    case WorkloadId::kKvMixedPut:
      return sim::Millis(30);
    case WorkloadId::kEchoPipelined:
      return sim::Millis(30);
    case WorkloadId::kEchoPhased:
      return sim::Millis(60);
  }
  return sim::Millis(10);
}

std::unique_ptr<Cluster> BuildCluster(const ClusterParams& p, SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  const Shape shape = ShapeOf(p.workload);
  auto c = std::make_unique<Cluster>(p);
  rdma::FabricConfig fc;
  fc.seed = SubSeed(p.seed, kFabricSalt);
  c->fabric = std::make_unique<rdma::Fabric>(c->engine, fc);
  c->server_node = &c->fabric->AddNode("server");
  for (int n = 0; n < shape.client_nodes; ++n) {
    c->client_nodes.push_back(&c->fabric->AddNode("client" + std::to_string(n)));
  }
  times->fabric_s = SecondsSince(start);

  Clock::time_point phase = Clock::now();
  const rfp::RfpOptions channel_options = ChannelOptions(p);
  rfp::ServerOptions server_options;
  server_options.straggler_seed = SubSeed(p.seed, kStragglerSalt);
  if (IsKv(p.workload)) {
    kv::JakiroConfig jc;
    jc.server_threads = shape.server_threads;
    jc.channel_options = channel_options;
    jc.server_options = server_options;
    // 8 slots x 2^16 buckets per partition holds the whole key space with no
    // evictions, so every GET must hit.
    jc.buckets_per_partition = size_t{1} << 16;
    c->jakiro = std::make_unique<kv::JakiroServer>(*c->fabric, *c->server_node, jc);
  } else {
    const bool pipelined = p.workload == WorkloadId::kEchoPipelined;
    server_options.multicore = pipelined;
    c->echo_server = std::make_unique<rfp::RpcServer>(*c->fabric, *c->server_node,
                                                      shape.server_threads, server_options);
    c->echo_server->RegisterHandler(
        kEchoRpc, EchoHandler(c.get(), pipelined ? kPipelineProcessNs : kShortProcessNs));
    c->handler_busy_ns.assign(static_cast<size_t>(shape.server_threads), 0);
  }
  times->server_s = SecondsSince(phase);

  phase = Clock::now();
  if (IsKv(p.workload)) {
    c->spec = KvSpec(p);
    c->written_sizes.assign(c->spec.num_keys, 0);
    std::vector<std::byte> key(c->spec.key_size);
    std::vector<std::byte> value(c->spec.value_size.hi > c->spec.value_size.fixed
                                     ? c->spec.value_size.hi
                                     : c->spec.value_size.fixed);
    for (uint64_t id = 0; id < c->spec.num_keys; ++id) {
      workload::MakeKey(id, key);
      const uint32_t size = PreloadValueSize(c->spec, id);
      const std::span<std::byte> v(value.data(), size);
      workload::FillValue(id, v);
      if (p.corrupt_every != 0 && id % p.corrupt_every == 0) {
        v[0] ^= std::byte{0x5a};
      }
      MarkWritten(*c, id, size);
      c->jakiro->partition(c->jakiro->OwnerThread(key)).Put(key, v);
    }
  }
  times->preload_s = SecondsSince(phase);

  phase = Clock::now();
  for (int t = 0; t < shape.clients; ++t) {
    rdma::Node& node = *c->client_nodes[static_cast<size_t>(t % shape.client_nodes)];
    if (IsKv(p.workload)) {
      c->kv_clients.push_back(std::make_unique<kv::JakiroClient>(*c->jakiro, node, c->connector));
      for (int s = 0; s < c->kv_clients.back()->num_channels(); ++s) {
        c->channels.push_back(c->kv_clients.back()->channel(s));
      }
    } else {
      c->leases.push_back(
          c->connector.Lease(*c->echo_server, node, channel_options, t % shape.server_threads));
      c->channels.push_back(c->leases.back().channel());
    }
  }
  c->tallies.resize(static_cast<size_t>(shape.clients));
  times->bringup_s = SecondsSince(phase);
  times->total_s = SecondsSince(start);
  return c;
}

void StartCluster(Cluster& c) {
  const auto clients = static_cast<uint32_t>(c.tallies.size());
  switch (c.params.workload) {
    case WorkloadId::kKvSmallGet:
    case WorkloadId::kKvMixedPut:
      for (uint32_t t = 0; t < clients; ++t) {
        c.engine.Spawn(
            KvDriver(&c, c.kv_clients[t].get(), workload::Generator(c.spec, t), t));
      }
      c.jakiro->Start();
      break;
    case WorkloadId::kEchoPipelined:
    case WorkloadId::kEchoPhased:
      c.echo_server->Start();
      for (uint32_t t = 0; t < clients; ++t) {
        rfp::RpcClient* stub = c.leases[t].stub();
        c.engine.Spawn(c.params.workload == WorkloadId::kEchoPipelined
                           ? PipelinedDriver(&c, stub, t)
                           : PhasedDriver(&c, stub, t));
      }
      break;
  }
}

}  // namespace perfbench
