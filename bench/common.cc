#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/check/checker.h"
#include "src/conn/pooled.h"
#include "src/kv/jakiro.h"
#include "src/kv/memcached_store.h"
#include "src/kv/pilaf_store.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/rdma/fabric.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"

namespace bench {

namespace {

constexpr int kColumnWidth = 14;

// ---- --json / --trace harness state -------------------------------------------

// One printed table: PrintTitle opens it, PrintHeader names the columns,
// PrintRow appends. The JSON dump replays these verbatim.
struct CapturedTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

// One simulated run (one engine) with the parameters the runner was given.
struct CapturedRun {
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;
};

struct Harness {
  std::string bench_name;
  std::string json_path;   // empty = no JSON dump
  std::string trace_path;  // empty = no trace dump
  std::vector<std::string> argv;
  std::vector<CapturedTable> tables;
  std::vector<CapturedRun> runs;
  std::unique_ptr<obs::Tracer> tracer;
};

// Leaked singleton; nullptr until Init sees at least one harness flag, so the
// capture paths below stay dead (and free) in plain text runs.
Harness* harness = nullptr;

// --seed=N override; consulted by every runner through SeedOr().
uint64_t g_seed = 0;
bool g_seed_set = false;

bool CaptureRows() { return harness != nullptr && !harness->json_path.empty(); }

CapturedTable& CurrentTable() {
  if (harness->tables.empty()) {
    harness->tables.emplace_back();  // rows printed before any PrintTitle
  }
  return harness->tables.back();
}

// One line of left-aligned cells; a cell that fills its column still gets
// one space before the next.
void PrintCells(const std::vector<std::string>& cells) {
  for (const auto& c : cells) {
    std::printf("%-*s", kColumnWidth, c.c_str());
    if (c.size() >= kColumnWidth) {
      std::printf(" ");
    }
  }
  std::printf("\n");
}

void WriteHarnessJson(const Harness& h, std::string* out) {
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Field("bench", h.bench_name);
  w.Field("schema_version", 1);
  w.Key("config");
  w.BeginObject();
  w.Key("argv");
  w.BeginArray();
  for (const auto& a : h.argv) {
    w.String(a);
  }
  w.EndArray();
  w.Field("bench_scale", [] {
    const char* env = std::getenv("RFP_BENCH_SCALE");
    return env == nullptr ? 1.0 : std::atof(env);
  }());
  if (g_seed_set) {
    w.Field("seed", std::to_string(g_seed));
  }
  w.Field("check_mode", check::ModeName(check::CurrentMode()));
  w.Key("runs");
  w.BeginArray();
  for (const auto& run : h.runs) {
    w.BeginObject();
    w.Field("label", run.label);
    w.Key("params");
    w.BeginObject();
    for (const auto& [k, v] : run.params) {
      w.Field(k, v);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.Key("rows");
  w.BeginArray();
  for (const auto& table : h.tables) {
    for (const auto& row : table.rows) {
      w.BeginObject();
      w.Field("table", table.title);
      w.Key("values");
      w.BeginObject();
      for (size_t i = 0; i < row.size(); ++i) {
        // Unnamed columns (no PrintHeader, or extra cells) fall back to c<i>.
        const std::string key =
            i < table.columns.size() ? table.columns[i] : "c" + std::to_string(i);
        w.Field(key, row[i]);
      }
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("metrics");
  obs::MetricsRegistry::Default().WriteJson(w);
  w.EndObject();
}

// atexit hook: by now every runner-scoped server/client/NIC has been
// destroyed, so the metrics registry holds the complete flush.
void WriteHarnessOutputs() {
  if (harness == nullptr) {
    return;
  }
  if (!harness->json_path.empty()) {
    std::string out;
    WriteHarnessJson(*harness, &out);
    out.push_back('\n');
    std::FILE* f = std::fopen(harness->json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write --json file %s\n", harness->json_path.c_str());
    } else {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
    }
  }
  if (!harness->trace_path.empty() && harness->tracer != nullptr) {
    if (!harness->tracer->WriteFile(harness->trace_path)) {
      std::fprintf(stderr, "bench: cannot write --trace file %s\n", harness->trace_path.c_str());
    }
  }
}

// Registers the run with the harness (for the JSON config block) and attaches
// the tracer to the run's fresh engine as its own trace "process". Inert
// without flags.
void BeginBenchRun(sim::Engine& engine, std::string label,
                   std::vector<std::pair<std::string, std::string>> params) {
  if (harness == nullptr) {
    return;
  }
  if (harness->tracer != nullptr) {
    engine.set_trace_sink(harness->tracer.get());
    harness->tracer->BeginRun(label);
  }
  if (!harness->json_path.empty()) {
    harness->runs.push_back(CapturedRun{std::move(label), std::move(params)});
  }
}

std::string TimeParam(sim::Time t) { return std::to_string(t); }

struct LoopCounter {
  uint64_t ops = 0;
};

sim::Task<void> ReadLoop(sim::Engine& eng, rdma::QueuePair* qp, rdma::MemoryRegion* local,
                         rdma::MemoryRegion* remote, uint32_t size, sim::Time deadline,
                         LoopCounter* out) {
  while (eng.now() < deadline) {
    rdma::WorkCompletion wc = co_await qp->Read(*local, 0, remote->remote_key(), 0, size);
    if (!wc.ok()) {
      throw std::runtime_error("bench: read failed");
    }
    ++out->ops;
  }
}

sim::Task<void> WriteLoop(sim::Engine& eng, rdma::QueuePair* qp, rdma::MemoryRegion* local,
                          rdma::MemoryRegion* remote, uint32_t size, sim::Time deadline,
                          LoopCounter* out) {
  while (eng.now() < deadline) {
    rdma::WorkCompletion wc = co_await qp->Write(*local, 0, remote->remote_key(), 0, size);
    if (!wc.ok()) {
      throw std::runtime_error("bench: write failed");
    }
    ++out->ops;
  }
}

// A request that needs k sequential one-sided READs (Fig 6's bypass
// amplification pattern).
sim::Task<void> AmplifiedRequestLoop(sim::Engine& eng, rdma::QueuePair* qp,
                                     rdma::MemoryRegion* local, rdma::MemoryRegion* remote,
                                     uint32_t size, int ops_per_request, sim::Time deadline,
                                     LoopCounter* requests) {
  while (eng.now() < deadline) {
    for (int i = 0; i < ops_per_request; ++i) {
      rdma::WorkCompletion wc = co_await qp->Read(*local, 0, remote->remote_key(),
                                                  static_cast<size_t>(i) * size, size);
      if (!wc.ok()) {
        throw std::runtime_error("bench: amplified read failed");
      }
    }
    ++requests->ops;
  }
}

// RFP_BENCH_SCALE multiplies every warmup/measure window (e.g. 0.2 for a
// quick smoke pass, 4 for tighter confidence intervals).
double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("RFP_BENCH_SCALE");
    if (env == nullptr) {
      return 1.0;
    }
    const double parsed = std::atof(env);
    return parsed > 0.0 ? parsed : 1.0;
  }();
  return scale;
}

sim::Time Scaled(sim::Time t) {
  return static_cast<sim::Time>(static_cast<double>(t) * BenchScale());
}

// Client nodes the echo and KV runners spread their threads over; the
// paper's Pilaf comparison used 6 machines.
constexpr int kClientNodes = 7;
constexpr int kPilafClientNodes = 6;
// Virtual time every cluster runner runs before its measurement window.
constexpr sim::Time kWarmup = sim::Millis(2);

double SumMops(const std::vector<LoopCounter>& counters, sim::Time window) {
  uint64_t total = 0;
  for (const auto& c : counters) {
    total += c.ops;
  }
  return Mops(total, window);
}

// Deterministic per-key value size for preloading under a size distribution.
uint32_t PreloadValueSize(const workload::WorkloadSpec& spec, uint64_t key_id) {
  switch (spec.value_size.kind) {
    case workload::ValueSizeSpec::Kind::kFixed:
      return spec.value_size.fixed;
    case workload::ValueSizeSpec::Kind::kUniformRange:
      return spec.value_size.lo +
             static_cast<uint32_t>(sim::Mix64(key_id) %
                                   (spec.value_size.hi - spec.value_size.lo + 1));
    case workload::ValueSizeSpec::Kind::kLogUniform: {
      int steps = 0;
      for (uint32_t v = spec.value_size.lo; v < spec.value_size.hi; v <<= 1) {
        ++steps;
      }
      return spec.value_size.lo
             << (sim::Mix64(key_id) % (static_cast<uint64_t>(steps) + 1));
    }
  }
  return spec.value_size.fixed;
}

// Generic KV client driver; Client must expose Get(key, out) and Put(key,
// value) coroutines (JakiroClient and MemcachedClient both do).
template <typename Client>
sim::Task<void> KvDriver(sim::Engine& eng, Client* client, workload::Generator gen,
                         sim::Time warmup_end, sim::Time measure_end,
                         Tally* counters) {
  std::vector<std::byte> key(gen.spec().key_size);
  std::vector<std::byte> value(16384);
  std::vector<std::byte> out(16384);
  while (eng.now() < measure_end) {
    const workload::Op op = gen.Next();
    workload::MakeKey(op.key_id, key);
    const sim::Time start = eng.now();
    if (op.type == workload::OpType::kGet) {
      std::optional<size_t> got = co_await client->Get(key, out);
      if (got.has_value() &&
          !workload::CheckValue(op.key_id, std::span<const std::byte>(out.data(), *got))) {
        ++counters->mismatches;
      }
    } else {
      workload::FillValue(op.key_id, std::span<std::byte>(value.data(), op.value_size));
      co_await client->Put(key, std::span<const std::byte>(value.data(), op.value_size));
    }
    const sim::Time end = eng.now();
    if (start >= warmup_end && end <= measure_end) {
      ++counters->completed;
      counters->latency.Record(end - start);
    }
  }
}

sim::Task<void> PilafDriver(sim::Engine& eng, kv::PilafClient* client, workload::Generator gen,
                            sim::Time warmup_end, sim::Time measure_end,
                            Tally* counters) {
  std::vector<std::byte> key(gen.spec().key_size);
  std::vector<std::byte> value(16384);
  std::vector<std::byte> out(16384);
  uint64_t version = 1;
  while (eng.now() < measure_end) {
    const workload::Op op = gen.Next();
    workload::MakeKey(op.key_id, key);
    const sim::Time start = eng.now();
    if (op.type == workload::OpType::kGet) {
      std::optional<size_t> got = co_await client->Get(key, out);
      if (got.has_value() && !workload::CheckValueVersioned(
                                 op.key_id, std::span<const std::byte>(out.data(), *got))) {
        ++counters->mismatches;
      }
    } else {
      workload::FillValueVersioned(op.key_id, ++version,
                                   std::span<std::byte>(value.data(), op.value_size));
      co_await client->Put(key, std::span<const std::byte>(value.data(), op.value_size));
    }
    const sim::Time end = eng.now();
    if (start >= warmup_end && end <= measure_end) {
      ++counters->completed;
      counters->latency.Record(end - start);
    }
  }
}

// ---- Call driver internals ------------------------------------------------------

bool Counted(const Load& load, sim::Time start, sim::Time end) {
  const sim::Time at = load.count == CountBy::kSubmit ? start : end;
  return at >= load.measure_start && end <= load.end;
}

bool ReplyOk(const Load& load, std::span<const std::byte> request,
             std::span<const std::byte> reply, size_t got) {
  if (got != load.reply_bytes) {
    return false;
  }
  const size_t stride = 1 + got / 64;
  for (size_t i = 0; i < got; i += stride) {
    const bool keyed = !load.stored_value || i == 0;
    if (reply[i] != (keyed ? ReplyByte(request, i) : ReplyByte(i))) {
      return false;
    }
  }
  return true;
}

// Books a call on `request` that returned `got` reply bytes at `end`.
void Book(const Load& load, std::span<const std::byte> request, sim::Time start, sim::Time end,
          std::span<const std::byte> reply, size_t got, Tally* tally) {
  if (!ReplyOk(load, request, reply, got)) {
    ++tally->mismatches;
  }
  if (Counted(load, start, end)) {
    ++tally->completed;
    tally->latency.Record(end - start);
  }
}

// Books a call that missed its deadline (shed) or threw anything else (failed).
void Miss(const Load& load, sim::Time start, sim::Time end, bool deadline, Tally* tally) {
  if (!deadline) {
    ++tally->failed;
  } else if (Counted(load, start, end)) {
    ++tally->shed;
  }
}

bool MissedDeadline(const std::exception& e) {
  return dynamic_cast<const rfp::DeadlineExceeded*>(&e) != nullptr;
}

// The call's sequence number, little-endian, in every request byte it fits.
std::span<const std::byte> NextRequest(std::vector<std::byte>& req, uint64_t* seq) {
  for (size_t b = 0; b < req.size(); ++b) {
    req[b] = static_cast<std::byte>(static_cast<uint8_t>(*seq >> (8 * b)));
  }
  ++*seq;
  return req;
}

// Window 1 and the open loop: one Call at a time. `deadline` is the
// channel's call deadline, 0 for none.
template <typename Client>
sim::Task<void> DriveOneByOne(sim::Engine& eng, Client* client, Load load, Tally* tally,
                              sim::Time first, sim::Time deadline) {
  const bool open = load.interarrival > 0;
  std::vector<std::byte> req(load.request_bytes);
  std::vector<std::byte> resp(load.reply_bytes);
  uint64_t seq = 0;
  sim::Time next = first;  // open loop: the next call's scheduled arrival
  while ((open ? next : eng.now()) < load.end) {
    if (open) {
      if (eng.now() < next) {
        co_await eng.Sleep(next - eng.now());
      }
      if (deadline > 0 && eng.now() >= next + deadline) {
        Miss(load, next, eng.now(), /*deadline=*/true, tally);
        next += load.interarrival;
        continue;
      }
    }
    const sim::Time start = open ? next : eng.now();
    try {
      const size_t got = co_await client->Call(kCallRpc, NextRequest(req, &seq), resp);
      Book(load, req, start, eng.now(), resp, got, tally);
    } catch (const std::exception& e) {
      Miss(load, start, eng.now(), MissedDeadline(e), tally);
    }
    next += load.interarrival;
  }
}

// Closed loop, window > 1: submit a burst, then await it. The first await
// flushes the burst in one doorbell batch, unless a pace hook flushed it.
sim::Task<void> DriveBursts(sim::Engine& eng, rfp::RpcClient* client, Load load, Tally* tally) {
  const size_t window = static_cast<size_t>(load.window);
  std::vector<std::vector<std::byte>> req(window, std::vector<std::byte>(load.request_bytes));
  std::vector<std::vector<std::byte>> resp(window, std::vector<std::byte>(load.reply_bytes));
  std::vector<rfp::Channel::CallHandle> handles(window);
  std::vector<sim::Time> submitted(window);
  uint64_t seq = 0;
  while (eng.now() < load.end) {
    const sim::Time burst_start = eng.now();
    for (size_t i = 0; i < window; ++i) {
      submitted[i] = eng.now();
      handles[i] = co_await client->SubmitCall(kCallRpc, NextRequest(req[i], &seq));
    }
    if (load.pace) {
      co_await client->channel()->FlushCalls();
      const sim::Time sleep = load.pace(burst_start);
      if (sleep > 0) {
        co_await eng.Sleep(sleep);
      }
    }
    for (size_t i = 0; i < window; ++i) {
      try {
        const size_t got = co_await client->AwaitCall(handles[i], resp[i]);
        Book(load, req[i], submitted[i], eng.now(), resp[i], got, tally);
      } catch (const std::exception& e) {
        Miss(load, submitted[i], eng.now(), MissedDeadline(e), tally);
      }
    }
  }
}

std::vector<rdma::Node*> AddClientNodes(rdma::Fabric& fabric, int count) {
  std::vector<rdma::Node*> nodes;
  for (int n = 0; n < count; ++n) {
    nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  return nodes;
}

rdma::FabricConfig Seeded(rdma::FabricConfig config) {
  config.seed = SeedOr(config.seed);
  return config;
}

}  // namespace

// ---- Flag plumbing -------------------------------------------------------------

void Init(int& argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      g_seed = std::strtoull(arg + 7, nullptr, 0);
      g_seed_set = true;
    } else if (std::strcmp(arg, "--check") == 0 || std::strcmp(arg, "--check=strict") == 0) {
      check::SetMode(check::Mode::kStrict);
    } else if (std::strcmp(arg, "--check=report") == 0) {
      check::SetMode(check::Mode::kReport);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argv[kept] = nullptr;
  argc = kept;
  if (json_path.empty() && trace_path.empty()) {
    return;  // stay inert: no capture state, no atexit hook
  }
  harness = new Harness();
  harness->json_path = std::move(json_path);
  harness->trace_path = std::move(trace_path);
  for (int i = 0; i < argc; ++i) {
    harness->argv.push_back(argv[i]);
  }
  const char* base = argc > 0 ? std::strrchr(argv[0], '/') : nullptr;
  harness->bench_name = argc > 0 ? (base != nullptr ? base + 1 : argv[0]) : "bench";
  if (!harness->trace_path.empty()) {
    harness->tracer = std::make_unique<obs::Tracer>();
  }
  std::atexit(WriteHarnessOutputs);
}

obs::Tracer* GlobalTracer() {
  return harness != nullptr ? harness->tracer.get() : nullptr;
}

bool SeedSet() { return g_seed_set; }

uint64_t SeedOr(uint64_t fallback) { return g_seed_set ? g_seed : fallback; }

// ---- Output helpers ----------------------------------------------------------

void PrintTitle(const std::string& title) {
  if (CaptureRows()) {
    harness->tables.push_back(CapturedTable{title, {}, {}});
  }
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintHeader(const std::vector<std::string>& columns) {
  if (CaptureRows()) {
    CurrentTable().columns = columns;
  }
  PrintCells(columns);
  for (size_t i = 0; i < columns.size() * kColumnWidth; ++i) {
    std::printf("-");
  }
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  if (CaptureRows()) {
    CurrentTable().rows.push_back(cells);
  }
  PrintCells(cells);
  std::fflush(stdout);
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FmtInt(uint64_t value) { return std::to_string(value); }

// ---- Call driver ---------------------------------------------------------------

std::byte ReplyByte(size_t i) { return static_cast<std::byte>(static_cast<uint8_t>(i * 31 + 7)); }

std::byte ReplyByte(std::span<const std::byte> request, size_t i) {
  return request[i % request.size()] ^ ReplyByte(i);
}

size_t FillReply(std::span<const std::byte> request, std::span<std::byte> out, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = ReplyByte(request, i);
  }
  return bytes;
}

rfp::Handler ReplyHandler(uint32_t reply_bytes, sim::Time process_ns) {
  return [reply_bytes, process_ns](const rfp::HandlerContext&, std::span<const std::byte> req,
                                   std::span<std::byte> resp) {
    return rfp::HandlerResult{FillReply(req, resp, reply_bytes), process_ns};
  };
}

void Tally::Merge(const Tally& other) {
  completed += other.completed;
  shed += other.shed;
  failed += other.failed;
  mismatches += other.mismatches;
  latency.Merge(other.latency);
}

double Tally::Mops(sim::Time window) const { return bench::Mops(completed, window); }

double Tally::PercentileUs(double q) const {
  return static_cast<double>(latency.Percentile(q)) / 1000.0;
}

double Mops(uint64_t calls, sim::Time window) {
  return static_cast<double>(calls) / sim::ToSeconds(window) / 1e6;
}

sim::Task<void> DriveCalls(sim::Engine& engine, rfp::RpcClient* client, Load load, Tally* tally,
                           sim::Time first) {
  if (load.interarrival == 0 && load.window > 1) {
    return DriveBursts(engine, client, std::move(load), tally);
  }
  const sim::Time deadline = client->channel()->options().call_deadline_ns;
  return DriveOneByOne(engine, client, std::move(load), tally, first, deadline);
}

sim::Task<void> DriveCalls(sim::Engine& engine, conn::PooledClient* client, Load load,
                           Tally* tally) {
  co_await client->Connect();
  co_await DriveOneByOne(engine, client, std::move(load), tally, 0, 0);
}

EchoCluster::EchoCluster(sim::Engine& engine_in, rdma::FabricConfig fabric_config,
                         int client_node_count, int server_threads,
                         const rfp::ServerOptions& server_options)
    : engine(engine_in),
      fabric(engine_in, Seeded(fabric_config)),
      server_node(fabric.AddNode("server")),
      client_nodes(AddClientNodes(fabric, client_node_count)),
      server(fabric, server_node, server_threads, server_options) {}

void EchoCluster::Start(int clients, const rfp::RfpOptions& options) {
  for (int t = 0; t < clients; ++t) {
    channels.push_back(server.AcceptChannel(*client_nodes[static_cast<size_t>(t) %
                                                          client_nodes.size()],
                                            options, t % server.num_threads()));
    stubs.push_back(std::make_unique<rfp::RpcClient>(channels.back()));
  }
  server.Start();
}

void EchoCluster::Run(const Load& load) {
  tallies.assign(stubs.size(), Tally{});
  const auto count = static_cast<sim::Time>(stubs.size());
  for (size_t t = 0; t < stubs.size(); ++t) {
    const sim::Time first = load.interarrival * static_cast<sim::Time>(t) / count;
    engine.Spawn(DriveCalls(engine, stubs[t].get(), load, &tallies[t], first));
  }
  engine.RunUntil(load.end);
  server.Stop();
}

Tally EchoCluster::Total() const {
  Tally total;
  for (const Tally& t : tallies) {
    total.Merge(t);
  }
  return total;
}

rfp::Channel::Stats EchoCluster::ChannelStats() const {
  rfp::Channel::Stats stats;
  for (const rfp::Channel* channel : channels) {
    stats.Merge(channel->stats());
  }
  return stats;
}

// ---- Raw fabric micro-benchmarks ----------------------------------------------

double RawInboundMops(int client_nodes, int threads_per_node, uint32_t size, sim::Time window,
                      const rdma::FabricConfig& fabric_config) {
  window = Scaled(window);
  sim::Engine engine;
  BeginBenchRun(engine, "raw-inbound",
                {{"client_nodes", std::to_string(client_nodes)},
                 {"threads_per_node", std::to_string(threads_per_node)},
                 {"size", std::to_string(size)},
                 {"window_ns", TimeParam(window)}});
  rdma::FabricConfig fc = fabric_config;
  fc.seed = SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server = fabric.AddNode("server");
  rdma::MemoryRegion* remote = server.RegisterMemory(65536, rdma::kAccessRemoteRead);
  std::vector<LoopCounter> counters(static_cast<size_t>(client_nodes * threads_per_node));
  size_t idx = 0;
  for (int n = 0; n < client_nodes; ++n) {
    rdma::Node& client = fabric.AddNode("client" + std::to_string(n));
    for (int t = 0; t < threads_per_node; ++t) {
      auto [cqp, sqp] = fabric.ConnectRc(client, server);
      (void)sqp;
      rdma::MemoryRegion* local = client.RegisterMemory(65536, rdma::kAccessLocal);
      engine.Spawn(ReadLoop(engine, cqp, local, remote, size, window, &counters[idx++]));
    }
  }
  engine.Run();
  return SumMops(counters, window);
}

double RawOutboundMops(int server_threads, uint32_t size, sim::Time window,
                       const rdma::FabricConfig& fabric_config) {
  window = Scaled(window);
  sim::Engine engine;
  BeginBenchRun(engine, "raw-outbound",
                {{"server_threads", std::to_string(server_threads)},
                 {"size", std::to_string(size)},
                 {"window_ns", TimeParam(window)}});
  rdma::FabricConfig fc = fabric_config;
  fc.seed = SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server = fabric.AddNode("server");
  std::vector<rdma::Node*> clients;
  std::vector<rdma::MemoryRegion*> client_mem;
  for (int n = 0; n < 7; ++n) {
    clients.push_back(&fabric.AddNode("client" + std::to_string(n)));
    client_mem.push_back(clients.back()->RegisterMemory(65536, rdma::kAccessRemoteWrite));
  }
  std::vector<LoopCounter> counters(static_cast<size_t>(server_threads));
  for (int t = 0; t < server_threads; ++t) {
    auto [sqp, cqp] = fabric.ConnectRc(server, *clients[static_cast<size_t>(t) % 7]);
    (void)cqp;
    rdma::MemoryRegion* local = server.RegisterMemory(65536, rdma::kAccessLocal);
    engine.Spawn(WriteLoop(engine, sqp, local, client_mem[static_cast<size_t>(t) % 7], size,
                           window, &counters[static_cast<size_t>(t)]));
  }
  engine.Run();
  return SumMops(counters, window);
}

AmplificationResult RunAmplification(int ops_per_request, int client_threads, uint32_t size,
                                     sim::Time window) {
  window = Scaled(window);
  sim::Engine engine;
  BeginBenchRun(engine, "amplification",
                {{"ops_per_request", std::to_string(ops_per_request)},
                 {"client_threads", std::to_string(client_threads)},
                 {"size", std::to_string(size)},
                 {"window_ns", TimeParam(window)}});
  rdma::FabricConfig fc;
  fc.seed = SeedOr(fc.seed);
  rdma::Fabric fabric(engine, fc);
  rdma::Node& server = fabric.AddNode("server");
  rdma::MemoryRegion* remote =
      server.RegisterMemory(static_cast<size_t>(ops_per_request) * size + 4096,
                            rdma::kAccessRemoteRead);
  const int nodes = 7;
  std::vector<LoopCounter> counters(static_cast<size_t>(client_threads));
  for (int t = 0; t < client_threads; ++t) {
    rdma::Node& client = fabric.AddNode("client" + std::to_string(t));
    auto [cqp, sqp] = fabric.ConnectRc(client, server);
    (void)sqp;
    rdma::MemoryRegion* local = client.RegisterMemory(65536, rdma::kAccessLocal);
    engine.Spawn(AmplifiedRequestLoop(engine, cqp, local, remote, size, ops_per_request, window,
                                      &counters[static_cast<size_t>(t)]));
  }
  (void)nodes;
  engine.Run();
  AmplificationResult result;
  result.request_mops = SumMops(counters, window);
  result.iops = result.request_mops * ops_per_request;
  return result;
}

// ---- Echo runner ---------------------------------------------------------------

EchoRunResult RunEcho(const EchoRunConfig& config_in) {
  EchoRunConfig config = config_in;
  const sim::Time warmup_end = Scaled(kWarmup);
  config.measure = Scaled(config.measure);
  sim::Engine engine;
  BeginBenchRun(engine, "echo",
                {{"process_ns", TimeParam(config.process_ns)},
                 {"result_size", std::to_string(config.result_size)},
                 {"server_threads", std::to_string(config.server_threads)},
                 {"client_nodes", std::to_string(kClientNodes)},
                 {"client_threads", std::to_string(config.client_threads)},
                 {"warmup_ns", TimeParam(warmup_end)},
                 {"measure_ns", TimeParam(config.measure)}});
  EchoCluster cluster(engine, config.fabric, kClientNodes, config.server_threads);
  cluster.server.RegisterHandler(kCallRpc,
                                 ReplyHandler(config.result_size, config.process_ns));
  cluster.Start(config.client_threads, config.channel);
  Load load;
  load.request_bytes = 1;
  load.reply_bytes = config.result_size;
  load.measure_start = warmup_end;
  load.end = warmup_end + config.measure;
  std::vector<sim::Time> busy_at_warmup(cluster.channels.size(), 0);
  engine.ScheduleAt(warmup_end, [&] {
    for (size_t i = 0; i < cluster.channels.size(); ++i) {
      busy_at_warmup[i] = cluster.channels[i]->client_busy().busy();
    }
  });
  cluster.Run(load);

  const Tally total = cluster.Total();
  if (total.errors() > 0) {
    throw std::runtime_error("bench: echo call failed or returned a wrong reply");
  }
  EchoRunResult result;
  result.ops = total.completed;
  result.latency = total.latency;
  result.mops = total.Mops(config.measure);
  double busy_total = 0;
  for (size_t i = 0; i < cluster.channels.size(); ++i) {
    rfp::Channel* channel = cluster.channels[i];
    busy_total += static_cast<double>(channel->client_busy().busy() - busy_at_warmup[i]);
    result.channels.Merge(channel->stats());
    if (channel->client_mode() == rfp::Mode::kServerReply) {
      ++result.channels_in_reply_mode;
    }
  }
  result.client_cpu =
      busy_total / static_cast<double>(config.client_threads) / static_cast<double>(config.measure);
  if (result.client_cpu > 1.0) {
    result.client_cpu = 1.0;
  }
  return result;
}

// ---- KV runner -----------------------------------------------------------------

const char* KvSystemName(KvSystem system) {
  switch (system) {
    case KvSystem::kJakiro:
      return "Jakiro";
    case KvSystem::kJakiroNoSwitch:
      return "Jakiro-NoSw";
    case KvSystem::kServerReply:
      return "ServerReply";
    case KvSystem::kMemcached:
      return "RDMA-Memc";
  }
  return "?";
}

workload::WorkloadSpec PaperWorkload() {
  workload::WorkloadSpec spec;
  spec.num_keys = 1 << 18;  // scaled-down key space (see DESIGN.md)
  spec.key_size = 16;
  spec.get_fraction = 0.95;
  spec.distribution = workload::KeyDistribution::kUniform;
  spec.value_size = workload::ValueSizeSpec::Fixed(32);
  return spec;
}

KvRunResult RunKv(const KvRunConfig& config_in) {
  KvRunConfig config = config_in;
  const sim::Time warmup_end = Scaled(kWarmup);
  config.measure = Scaled(config.measure);
  config.fabric.seed = SeedOr(config.fabric.seed);
  sim::Engine engine;
  BeginBenchRun(engine, std::string("kv-") + KvSystemName(config.system),
                {{"system", KvSystemName(config.system)},
                 {"server_threads", std::to_string(config.server_threads)},
                 {"client_nodes", std::to_string(kClientNodes)},
                 {"client_threads", std::to_string(config.client_threads)},
                 {"num_keys", std::to_string(config.workload.num_keys)},
                 {"get_fraction", std::to_string(config.workload.get_fraction)},
                 {"warmup_ns", TimeParam(warmup_end)},
                 {"measure_ns", TimeParam(config.measure)}});
  rdma::Fabric fabric(engine, config.fabric);
  rdma::Node& server_node = fabric.AddNode("server");
  std::vector<rdma::Node*> client_nodes;
  for (int n = 0; n < kClientNodes; ++n) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }

  const sim::Time measure_end = warmup_end + config.measure;
  std::vector<Tally> counters(static_cast<size_t>(config.client_threads));
  std::vector<rfp::Channel*> all_channels;
  std::vector<std::byte> key(config.workload.key_size);
  std::vector<std::byte> value(16384);

  std::unique_ptr<kv::JakiroServer> jakiro_server;
  std::vector<std::unique_ptr<kv::JakiroClient>> jakiro_clients;
  std::unique_ptr<kv::MemcachedServer> memcached_server;
  std::vector<std::unique_ptr<kv::MemcachedClient>> memcached_clients;

  if (config.system == KvSystem::kMemcached) {
    kv::MemcachedConfig mc;
    mc.server_threads = config.server_threads;
    mc.channel_options = config.channel;
    memcached_server = std::make_unique<kv::MemcachedServer>(fabric, server_node, mc);
    for (uint64_t id = 0; id < config.workload.num_keys; ++id) {
      workload::MakeKey(id, key);
      const uint32_t vs = PreloadValueSize(config.workload, id);
      workload::FillValue(id, std::span<std::byte>(value.data(), vs));
      memcached_server->Preload(key, std::span<const std::byte>(value.data(), vs));
    }
    for (int t = 0; t < config.client_threads; ++t) {
      memcached_clients.push_back(std::make_unique<kv::MemcachedClient>(
          *memcached_server, *client_nodes[static_cast<size_t>(t % kClientNodes)],
          t % config.server_threads));
      all_channels.push_back(memcached_clients.back()->channel());
      engine.Spawn(KvDriver(engine, memcached_clients.back().get(),
                            workload::Generator(config.workload,
                                                SeedOr(0) + static_cast<uint64_t>(t)),
                            warmup_end, measure_end,
                            &counters[static_cast<size_t>(t)]));
    }
    memcached_server->Start();
  } else {
    kv::JakiroConfig jc;
    jc.server_threads = config.server_threads;
    jc.channel_options = config.channel;
    jc.server_options = config.server;
    // Size partitions to hold the whole key space without evictions.
    jc.buckets_per_partition =
        std::max<size_t>(1 << 12, (config.workload.num_keys / static_cast<size_t>(
                                       config.server_threads)) /
                                      4);
    switch (config.system) {
      case KvSystem::kServerReply:
        jc = kv::JakiroConfig::Build(jc).ServerReply();
        break;
      case KvSystem::kJakiroNoSwitch:
        jc = kv::JakiroConfig::Build(jc).NoSwitch();
        break;
      default:
        break;
    }
    jakiro_server = std::make_unique<kv::JakiroServer>(fabric, server_node, jc);
    for (uint64_t id = 0; id < config.workload.num_keys; ++id) {
      workload::MakeKey(id, key);
      const uint32_t vs = PreloadValueSize(config.workload, id);
      workload::FillValue(id, std::span<std::byte>(value.data(), vs));
      jakiro_server->partition(jakiro_server->OwnerThread(key))
          .Put(key, std::span<const std::byte>(value.data(), vs));
    }
    for (int t = 0; t < config.client_threads; ++t) {
      jakiro_clients.push_back(std::make_unique<kv::JakiroClient>(
          *jakiro_server, *client_nodes[static_cast<size_t>(t % kClientNodes)]));
      for (int s = 0; s < jakiro_server->num_threads(); ++s) {
        all_channels.push_back(jakiro_clients.back()->channel(s));
      }
      engine.Spawn(KvDriver(engine, jakiro_clients.back().get(),
                            workload::Generator(config.workload,
                                                SeedOr(0) + static_cast<uint64_t>(t)),
                            warmup_end, measure_end,
                            &counters[static_cast<size_t>(t)]));
    }
    jakiro_server->Start();
  }

  std::vector<sim::Time> busy_at_warmup(all_channels.size(), 0);
  engine.ScheduleAt(warmup_end, [&] {
    for (size_t i = 0; i < all_channels.size(); ++i) {
      busy_at_warmup[i] = all_channels[i]->client_busy().busy();
    }
  });

  engine.RunUntil(measure_end);
  if (jakiro_server != nullptr) {
    jakiro_server->Stop();
  }
  if (memcached_server != nullptr) {
    memcached_server->Stop();
  }

  KvRunResult result;
  Tally total;
  for (const Tally& c : counters) {
    total.Merge(c);
  }
  result.ops = total.completed;
  result.verify_failures = total.mismatches;
  result.latency = total.latency;
  result.mops = total.Mops(config.measure);
  double busy_total = 0;
  for (size_t i = 0; i < all_channels.size(); ++i) {
    busy_total += static_cast<double>(all_channels[i]->client_busy().busy() - busy_at_warmup[i]);
    result.channels.Merge(all_channels[i]->stats());
  }
  // Busy time sums over channels, but each client thread multiplexes its
  // channels, so normalize by threads.
  result.client_cpu =
      busy_total / static_cast<double>(config.client_threads) / static_cast<double>(config.measure);
  if (result.client_cpu > 1.0) {
    result.client_cpu = 1.0;
  }
  return result;
}

// ---- Pilaf runner ---------------------------------------------------------------

PilafRunResult RunPilaf(const PilafRunConfig& config_in) {
  PilafRunConfig config = config_in;
  const sim::Time warmup_end = Scaled(kWarmup);
  config.measure = Scaled(config.measure);
  config.fabric.seed = SeedOr(config.fabric.seed);
  sim::Engine engine;
  BeginBenchRun(engine, "pilaf",
                {{"client_nodes", std::to_string(kPilafClientNodes)},
                 {"client_threads", std::to_string(config.client_threads)},
                 {"num_keys", std::to_string(config.workload.num_keys)},
                 {"get_fraction", std::to_string(config.workload.get_fraction)},
                 {"warmup_ns", TimeParam(warmup_end)},
                 {"measure_ns", TimeParam(config.measure)}});
  rdma::Fabric fabric(engine, config.fabric);
  rdma::Node& server_node = fabric.AddNode("server");

  kv::PilafConfig pc;
  // ~75% fill, like the paper's Pilaf configuration.
  pc.num_slots = config.workload.num_keys * 4 / 3 + 64;
  pc.extent_bytes = std::max<size_t>(
      64u << 20, config.workload.num_keys * (config.workload.key_size + 8192 / 4));
  kv::PilafServer server(fabric, server_node, pc);

  std::vector<std::byte> key(config.workload.key_size);
  std::vector<std::byte> value(16384);
  for (uint64_t id = 0; id < config.workload.num_keys; ++id) {
    workload::MakeKey(id, key);
    const uint32_t vs = std::max<uint32_t>(8, PreloadValueSize(config.workload, id));
    workload::FillValueVersioned(id, 0, std::span<std::byte>(value.data(), vs));
    if (!server.Preload(key, std::span<const std::byte>(value.data(), vs))) {
      throw std::runtime_error("pilaf preload failed (table sized too small)");
    }
  }

  std::vector<rdma::Node*> client_nodes;
  for (int n = 0; n < kPilafClientNodes; ++n) {
    client_nodes.push_back(&fabric.AddNode("client" + std::to_string(n)));
  }
  std::vector<std::unique_ptr<kv::PilafClient>> clients;
  std::vector<Tally> counters(static_cast<size_t>(config.client_threads));
  const sim::Time measure_end = warmup_end + config.measure;
  for (int t = 0; t < config.client_threads; ++t) {
    clients.push_back(std::make_unique<kv::PilafClient>(
        fabric, *client_nodes[static_cast<size_t>(t % kPilafClientNodes)], server,
        t % kv::kPilafServerThreads));
    workload::WorkloadSpec spec = config.workload;
    // Pilaf preloads versioned values; PUT sizes must stay >= 8.
    if (spec.value_size.kind == workload::ValueSizeSpec::Kind::kFixed) {
      spec.value_size.fixed = std::max<uint32_t>(8, spec.value_size.fixed);
    }
    engine.Spawn(PilafDriver(engine, clients.back().get(),
                             workload::Generator(spec, SeedOr(0) + static_cast<uint64_t>(t)),
                             warmup_end,
                             measure_end, &counters[static_cast<size_t>(t)]));
  }
  server.Start();
  engine.RunUntil(measure_end);
  server.Stop();

  PilafRunResult result;
  Tally total;
  for (const Tally& c : counters) {
    total.Merge(c);
  }
  result.ops = total.completed;
  result.verify_failures = total.mismatches;
  result.latency = total.latency;
  result.mops = total.Mops(config.measure);
  uint64_t gets = 0;
  uint64_t reads = 0;
  for (const auto& client : clients) {
    gets += client->stats().gets;
    reads += client->stats().slot_reads + client->stats().extent_reads;
    result.crc_failures += client->stats().crc_failures;
  }
  result.reads_per_get = gets > 0 ? static_cast<double>(reads) / static_cast<double>(gets) : 0.0;
  return result;
}

void PrintCdf(const std::string& label, const sim::Histogram& latency, int max_points) {
  std::printf("%s latency CDF (us, cumulative):", label.c_str());
  const auto cdf = latency.Cdf();
  const size_t stride = cdf.size() > static_cast<size_t>(max_points)
                            ? cdf.size() / static_cast<size_t>(max_points)
                            : 1;
  for (size_t i = 0; i < cdf.size(); i += stride) {
    std::printf(" %.1f:%.3f", static_cast<double>(cdf[i].value) / 1000.0, cdf[i].cumulative);
  }
  if (!cdf.empty()) {
    std::printf(" %.1f:1.000", static_cast<double>(cdf.back().value) / 1000.0);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace bench
