// The repository benchmark driver (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--replicas N] [--corrupt N] [--out DIR]
//
// One run is a few replicas of the workload, each a fresh cluster on its own
// sub-seed that is set up (timed: setup_s) and then simulated for its share
// of the virtual window. Simulated metrics are the median over replicas, so
// a replica whose closed loop settles into a rarer equilibrium moves the
// result no more than one sample.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the replicas
// untraced, then again with spans recorded around every call into the
// library, each pass over half of --seconds, and reports the per-layer
// metrics of the traced pass plus the tracing overhead; the spans are
// written to DIR at exit.
//
// All load comes from one host thread: the simulated clients are coroutines.
// The last line of stdout is the result object; the line before it is an
// "info" object with the event-stream digest and the saturating station.
// Exit code 1 means a returned value failed verification.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const sim::Time kWarmup = sim::Millis(2);
const sim::Time kMinMeasure = sim::Micros(500);

// The measure windows of all replicas together run in this many slices of
// virtual time, each timed on the host. Short slices (~15 ms of wall time
// at --seconds 15) let the cheapest one fall in a quiet moment of a busy
// shared host.
constexpr int kRunSlices = 1000;

// Replicas per run: enough set-ups for a median, while each replica keeps
// >= 1e5 calls in its window at --seconds 10 or more, so its p99.9 has >= 100
// samples beyond it. Fixed per workload, so the heap a run ends with, and
// with it peak RSS, does not depend on host speed.
int Replicas(WorkloadId id) {
  switch (id) {
    case WorkloadId::kKvMixedPut:
      return 3;
    case WorkloadId::kEchoPipelined:
      return 10;
    default:
      return 9;
  }
}

// Per-replica metrics that are utilizations of a queueing station. Client
// CPU is not one: a closed-loop client spins on its fetches, so it reads
// busy whatever saturates.
const char* const kStations[] = {"rdma.inbound_util", "rdma.outbound_util",
                                 "rdma.client_outbound_util_max", "rpc.worker_util_max",
                                 "rpc.handler_util_max"};

struct Options {
  WorkloadId workload = WorkloadId::kKvSmallGet;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int replicas = 0;  // 0 = the workload's own count
  uint64_t corrupt_every = 0;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &o->workload)) {
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(value);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--replicas") {
      o->replicas = std::atoi(value);
    } else if (flag == "--corrupt") {
      o->corrupt_every = std::strtoull(value, nullptr, 0);
    } else if (flag == "--out") {
      o->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && o->seconds > 0 && o->replicas >= 0;
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

template <typename T>
double Ratio(T num, T den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
  return h;
}

uint64_t CompletedCalls(const Cluster& c) {
  uint64_t done = 0;
  for (const CallTally& t : c.tallies) {
    done += t.finished - t.failed;
  }
  return done;
}

struct HostSpan {
  std::string name;
  int replica = 0;
  double start_s = 0;
  double end_s = 0;
};

// What one pass over all replicas measured.
struct PassResult {
  std::vector<std::vector<Metric>> replicas;  // same names, same order in each
  std::vector<double> setup_s;
  std::vector<double> slice_us_per_call;
  std::vector<HostSpan> host_spans;
  std::vector<CallSpan> spans;
  uint64_t finished = 0;
  uint64_t failed = 0;
  uint64_t window_calls = 0;
  uint64_t events = 0;
  uint64_t switches_to_reply = 0;
  uint64_t switches_to_fetch = 0;
  uint64_t digest = 0xcbf29ce484222325ULL;

  // The cheapest slice: interference from other work on a shared host only
  // ever adds time, and can last longer than a whole run, so a central
  // value drifts with the neighbours while the best slice tracks the code.
  double host_us_per_call() const {
    return slice_us_per_call.empty()
               ? 0
               : *std::min_element(slice_us_per_call.begin(), slice_us_per_call.end());
  }

  // Median over replicas of the metric named `name`.
  double MedianOf(const std::string& name) const {
    std::vector<double> v;
    for (const auto& metrics : replicas) {
      for (const Metric& m : metrics) {
        if (m.name == name) {
          v.push_back(m.value);
        }
      }
    }
    return Median(v);
  }
};

// p50 of one call kind among `spans` that completed in [from, to].
double SpanP50Us(const std::vector<CallSpan>& spans, uint8_t kind, sim::Time from, sim::Time to) {
  std::vector<int64_t> lat;
  for (const CallSpan& s : spans) {
    const int64_t end = s.issue_ns + s.latency_ns;
    if (s.ok != 0 && s.kind == kind && end >= from && end <= to) {
      lat.push_back(s.latency_ns);
    }
  }
  return Quantiles(lat, {0.5})[0] / 1e3;
}

// Sets up, runs and measures one replica, appending to `pass`.
void RunReplica(const ClusterParams& params, int slices, Clock::time_point origin,
                PassResult* pass) {
  SetupTimes setup;
  const double setup_start = SecondsSince(origin);
  std::unique_ptr<Cluster> c = BuildCluster(params, &setup);
  double at = setup_start;
  for (auto [name, dur] : {std::pair{"setup.fabric", setup.fabric_s}, {"setup.server", setup.server_s},
                           {"setup.preload", setup.preload_s}, {"setup.bringup", setup.bringup_s}}) {
    pass->host_spans.push_back(HostSpan{name, static_cast<int>(params.replica), at, at + dur});
    at += dur;
  }
  pass->setup_s.push_back(setup.total_s);

  size_t registered_bytes = 0;
  uint64_t registrations = 0;
  rdma::Fabric& fabric = *c->fabric;
  for (size_t n = 0; n < fabric.node_count(); ++n) {
    registered_bytes += fabric.RegisteredBytes(fabric.node(n));
    registrations += fabric.RegistrationCount(fabric.node(n));
  }
  rdma::Node& server = *c->server_node;
  const sim::Time from = params.warmup_end;
  const sim::Time to = params.end;
  server.nic().WatchUtilization(from);
  server.cpus().WatchUtilization(from);
  for (rdma::Node* node : c->client_nodes) {
    node->nic().WatchUtilization(from);
  }

  // ---- run ----
  const double run_start = SecondsSince(origin);
  const Clock::time_point t0 = Clock::now();
  StartCluster(*c);
  c->engine.RunUntil(from);
  const Snapshot a = TakeSnapshot(*c);
  uint64_t done_before = CompletedCalls(*c);
  for (int s = 1; s <= slices; ++s) {
    const Clock::time_point slice_start = Clock::now();
    c->engine.RunUntil(from + (to - from) * s / slices);
    const double wall = SecondsSince(slice_start);
    const uint64_t done = CompletedCalls(*c);
    if (done > done_before) {
      pass->slice_us_per_call.push_back(wall * 1e6 / static_cast<double>(done - done_before));
    }
    done_before = done;
  }
  const double run_wall_s = SecondsSince(t0);
  pass->host_spans.push_back(
      HostSpan{"run", static_cast<int>(params.replica), run_start, run_start + run_wall_s});
  const Snapshot b = TakeSnapshot(*c);
  c->rpc().Stop();

  // ---- measure ----
  std::vector<int64_t> latency;
  uint64_t finished = 0;
  int64_t gen_ns = 0;
  int64_t value_ns = 0;
  for (const CallTally& t : c->tallies) {
    finished += t.finished;
    pass->failed += t.failed;
    gen_ns += t.gen_ns;
    value_ns += t.value_ns;
    pass->digest = Fnv(pass->digest, t.finished);
    for (int64_t v : t.window_latency_ns) {
      pass->digest = Fnv(pass->digest, static_cast<uint64_t>(v));
    }
    latency.insert(latency.end(), t.window_latency_ns.begin(), t.window_latency_ns.end());
  }
  pass->finished += finished;
  pass->window_calls += latency.size();
  pass->events += b.events;
  pass->digest = Fnv(pass->digest, b.events);
  const ChannelCounts& ca = a.channels;
  const ChannelCounts& cb = b.channels;
  pass->switches_to_reply += cb.switches_to_reply - ca.switches_to_reply;
  pass->switches_to_fetch += cb.switches_to_fetch - ca.switches_to_fetch;

  const double window = static_cast<double>(to - from);
  const double calls = static_cast<double>(latency.size());
  const uint64_t ch_calls = cb.calls - ca.calls;
  const std::vector<double> q = Quantiles(latency, {0.5, 0.99, 0.999});

  rfp::RpcServer& rpc = c->rpc();
  double worker_util_max = 0;
  for (int t = 0; t < rpc.num_threads(); ++t) {
    if (rpc.thread_core(t) >= 0) {
      worker_util_max =
          std::max(worker_util_max, server.cpus().CoreUtilization(rpc.thread_core(t), from, to));
    }
  }
  double handler_util_max = 0;
  for (int64_t busy : c->handler_busy_ns) {
    handler_util_max = std::max(handler_util_max, static_cast<double>(busy) / window);
  }
  double client_outbound_util_max = 0;
  for (rdma::Node* node : c->client_nodes) {
    client_outbound_util_max =
        std::max(client_outbound_util_max, node->nic().IssueUtilization(from, to));
  }
  uint64_t served_max = 0;
  uint64_t served_sum = 0;
  for (size_t t = 0; t < b.served_by.size(); ++t) {
    const uint64_t d = b.served_by[t] - a.served_by[t];
    served_max = std::max(served_max, d);
    served_sum += d;
  }
  const double served_mean =
      static_cast<double>(served_sum) / static_cast<double>(b.served_by.size());
  const bool kv = c->jakiro != nullptr;
  const bool phased = params.workload == WorkloadId::kEchoPhased;

  std::vector<Metric> m = {
      {"sim_mops", calls / sim::ToSeconds(to - from) / 1e6, "Mcalls/s"},
      {"sim_p50_us", q[0] / 1e3, "us"},
      {"sim_p99_us", q[1] / 1e3, "us"},
      {"sim_p999_us", q[2] / 1e3, "us"},
      {"sim.events_per_call", Ratio(b.events - a.events, latency.size()), "1/call"},
      {"sim.host_ns_per_event", run_wall_s * 1e9 / static_cast<double>(b.events), "ns"},
      {"rdma.inbound_util", server.nic().ServeUtilization(from, to), "fraction"},
      {"rdma.inbound_ops_per_call", Ratio(b.inbound_ops - a.inbound_ops, latency.size()), "1/call"},
      {"rdma.outbound_util", server.nic().IssueUtilization(from, to), "fraction"},
      {"rdma.outbound_ops_per_call", Ratio(b.outbound_ops - a.outbound_ops, latency.size()),
       "1/call"},
      {"rdma.issue_wait_p99_ns",
       static_cast<double>(PercentileSince(b.issue_wait, a.issue_wait, 0.99)), "ns"},
      {"rdma.client_outbound_util_max", client_outbound_util_max, "fraction"},
      {"rfp.rtrips_per_call",
       Ratio((cb.request_writes + cb.fetch_reads + cb.reply_pushes) -
                 (ca.request_writes + ca.fetch_reads + ca.reply_pushes),
             ch_calls),
       "1/call"},
      {"rfp.failed_fetches_per_call", Ratio(cb.failed_fetches - ca.failed_fetches, ch_calls),
       "1/call"},
      {"rfp.extra_fetches_per_call", Ratio(cb.extra_fetches - ca.extra_fetches, ch_calls),
       "1/call"},
      {"rfp.reply_frac", Ratio(cb.reply_pushes - ca.reply_pushes, ch_calls), "fraction"},
      {"rfp.switches_to_reply", static_cast<double>(cb.switches_to_reply - ca.switches_to_reply),
       "count"},
      {"rfp.switches_to_fetch", static_cast<double>(cb.switches_to_fetch - ca.switches_to_fetch),
       "count"},
      {"rfp.coalesced_slots_per_fetch",
       Ratio(cb.coalesced_slots - ca.coalesced_slots, cb.coalesced_fetches - ca.coalesced_fetches),
       "slots/fetch"},
      {"rfp.batch_occupancy_mean",
       cb.batches == ca.batches
           ? 0.0
           : (cb.batch_ops - ca.batch_ops) / static_cast<double>(cb.batches - ca.batches),
       "ops/batch"},
      {"rfp.client_cpu",
       std::min(1.0, static_cast<double>(cb.client_busy_ns - ca.client_busy_ns) /
                         static_cast<double>(c->tallies.size()) / window),
       "fraction"},
      {"rpc.worker_util_max", worker_util_max, "fraction"},
      {"rpc.handler_util_max", handler_util_max, "fraction"},
      {"rpc.steals", static_cast<double>(b.steals - a.steals), "count"},
      {"rpc.served_imbalance",
       served_mean == 0 ? 0.0 : static_cast<double>(served_max) / served_mean, "ratio"},
      {"kv.hit_ratio",
       Ratio(b.kv_hits - a.kv_hits, (b.kv_hits + b.kv_misses) - (a.kv_hits + a.kv_misses)),
       "fraction"},
      {"kv.evictions", static_cast<double>(b.kv_evictions - a.kv_evictions), "count"},
      {"kv.cow_puts", static_cast<double>(b.kv_cow_puts - a.kv_cow_puts), "count"},
      {"kv.preload_s", kv ? setup.preload_s : 0.0, "s"},
      {"workload.value_ns_per_call", Ratio(value_ns, static_cast<int64_t>(finished)), "ns"},
      {"workload.gen_ns_per_call", Ratio(gen_ns, static_cast<int64_t>(finished)), "ns"},
      {"mem.registered_mib", static_cast<double>(registered_bytes) / (1 << 20), "MiB"},
      {"mem.registrations", static_cast<double>(registrations), "count"},
      {"conn.bringup_s", setup.bringup_s, "s"},
      {"span.get_p50_us", kv ? SpanP50Us(c->spans, 0, from, to) : 0.0, "us"},
      {"span.put_p50_us", kv ? SpanP50Us(c->spans, 1, from, to) : 0.0, "us"},
      {"span.short_p_p50_us", phased ? SpanP50Us(c->spans, 0, from, to) : 0.0, "us"},
      {"span.long_p_p50_us", phased ? SpanP50Us(c->spans, 1, from, to) : 0.0, "us"},
  };
  double busiest = 0;
  for (const char* station : kStations) {
    for (const Metric& metric : m) {
      if (metric.name == station) {
        busiest = std::max(busiest, metric.value);
      }
    }
  }
  m.push_back({"station.max_util", busiest, "fraction"});
  pass->replicas.push_back(std::move(m));
  pass->spans.insert(pass->spans.end(), c->spans.begin(), c->spans.end());
}

PassResult RunPass(const Options& o, bool traced) {
  const int replicas = o.replicas > 0 ? o.replicas : Replicas(o.workload);
  const auto total = static_cast<sim::Time>(
      o.seconds * static_cast<double>(VirtualPerWallSecond(o.workload)));
  const sim::Time measure = std::max(kMinMeasure, total / replicas);
  const int slices = std::max(1, kRunSlices / replicas);
  PassResult pass;
  const Clock::time_point origin = Clock::now();
  for (int i = 0; i < replicas; ++i) {
    ClusterParams p;
    p.workload = o.workload;
    p.seed = sim::Mix64(o.seed) + static_cast<uint64_t>(i);
    p.replica = static_cast<uint32_t>(i);
    p.warmup_end = kWarmup;
    p.end = kWarmup + measure;
    p.trace = traced;
    p.corrupt_every = o.corrupt_every;
    RunReplica(p, slices, origin, &pass);
  }
  return pass;
}

std::vector<Metric> EndToEnd(const PassResult& r) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"sim_mops", r.MedianOf("sim_mops"), "Mcalls/s"},
      {"sim_p50_us", r.MedianOf("sim_p50_us"), "us"},
      {"sim_p99_us", r.MedianOf("sim_p99_us"), "us"},
      {"sim_p999_us", r.MedianOf("sim_p999_us"), "us"},
      {"ok_frac", 1.0 - Ratio(r.failed, r.finished), "fraction"},
      {"setup_s", Median(r.setup_s), "s"},
      {"host_us_per_call", r.host_us_per_call(), "us"},
      {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
  };
}

std::vector<Metric> PerLayer(const PassResult& r, const PassResult& untraced) {
  std::vector<Metric> out;
  for (const Metric& m : r.replicas.front()) {
    if (m.name.find('.') != std::string::npos) {  // per-layer names are dotted
      out.push_back({m.name, r.MedianOf(m.name), m.unit});
    }
  }
  out.push_back({"trace.overhead_us_per_call",
                 r.host_us_per_call() - untraced.host_us_per_call(), "us"});
  return out;
}

const char* SaturatingStation(const PassResult& r, double* util) {
  const char* best = kStations[0];
  *util = -1;
  for (const char* station : kStations) {
    const double u = r.MedianOf(station);
    if (u > *util) {
      *util = u;
      best = station;
    }
  }
  return best;
}

std::string JsonString(const std::string& s) { return "\"" + s + "\""; }

// Spans stay in memory during the run and are written here at exit:
// <dir>/<workload>.trace.json (host spans, per-layer metrics) and
// <dir>/<workload>.calls.bin (one 24-byte CallSpan record per call).
void WriteTrace(const std::string& dir, const Options& o, const PassResult& r,
                const std::vector<Metric>& metrics, const char* station) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string name = WorkloadName(o.workload);
  std::FILE* calls = std::fopen((dir + "/" + name + ".calls.bin").c_str(), "wb");
  std::FILE* json = std::fopen((dir + "/" + name + ".trace.json").c_str(), "w");
  if (calls == nullptr || json == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace files under %s\n", dir.c_str());
  } else {
    static_assert(sizeof(CallSpan) == 24, "CallSpan records are 24 bytes");
    std::fwrite(r.spans.data(), sizeof(CallSpan), r.spans.size(), calls);
    std::string out = "{\"workload\": " + JsonString(name) + ", \"seed\": " +
                      std::to_string(o.seed) + ", \"saturating_station\": " +
                      JsonString(station) + ", \"call_spans\": {\"file\": " +
                      JsonString(name + ".calls.bin") +
                      ", \"count\": " + std::to_string(r.spans.size()) +
                      ", \"record\": \"u64 call_id (replica << 56 | client << 40 | seq), "
                      "i64 issue_ns, u32 latency_ns, u8 kind, u8 ok, 2 pad; little-endian\"}"
                      ", \"host_spans\": [";
    for (size_t i = 0; i < r.host_spans.size(); ++i) {
      const HostSpan& s = r.host_spans[i];
      out += std::string(i > 0 ? ", " : "") + "{\"name\": " + JsonString(s.name) +
             ", \"replica\": " + std::to_string(s.replica) +
             ", \"start_s\": " + FormatNumber(s.start_s) + ", \"end_s\": " + FormatNumber(s.end_s) +
             "}";
    }
    out += "], \"per_layer\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      out += std::string(i > 0 ? ", " : "") + JsonString(metrics[i].name) + ": " +
             FormatNumber(metrics[i].value);
    }
    out += "}}\n";
    std::fputs(out.c_str(), json);
  }
  if (calls != nullptr) {
    std::fclose(calls);
  }
  if (json != nullptr) {
    std::fclose(json);
  }
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload kv_small_get|kv_mixed_put|echo_pipelined|"
                 "echo_phased --seed N --seconds S --trace 0|1 [--replicas N] "
                 "[--corrupt N] [--out DIR]\n");
    return 2;
  }
  // A traced run splits --seconds between its untraced and traced passes,
  // so it takes as long as an untraced run.
  Options pass_options = o;
  PassResult untraced;
  if (o.trace) {
    pass_options.seconds = o.seconds / 2;
    untraced = RunPass(pass_options, false);
  }
  const PassResult result = RunPass(pass_options, o.trace);
  const std::vector<Metric> metrics = o.trace ? PerLayer(result, untraced) : EndToEnd(result);
  double station_util = 0;
  const char* station = SaturatingStation(result, &station_util);

  // The workload is only valid if every call verified, calls completed in
  // the window, and echo_phased really crossed the switch both ways.
  std::vector<std::string> problems;
  if (result.failed != 0) {
    problems.push_back(std::to_string(result.failed) + " calls failed verification");
  }
  if (result.window_calls == 0) {
    problems.push_back("no call completed in the measure window");
  }
  if (o.workload == WorkloadId::kEchoPhased &&
      (result.switches_to_reply == 0 || result.switches_to_fetch == 0)) {
    problems.push_back("echo_phased did not switch paradigm both ways");
  }
  const bool correct = problems.empty();

  std::printf("perfbench %s seed=%llu trace=%d: %zu replicas\n", WorkloadName(o.workload),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0, result.replicas.size());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  saturating station: %s (%.3f)\n", station, station_util);
  for (const std::string& p : problems) {
    std::printf("  VERIFICATION FAILED: %s\n", p.c_str());
  }
  if (o.trace) {
    WriteTrace(o.out_dir, o, result, metrics, station);
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(result.digest));
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"window_calls\": %llu, \"events\": %llu, "
      "\"digest\": \"%s\", \"switches_to_reply\": %llu, \"switches_to_fetch\": %llu, "
      "\"saturating_station\": \"%s\", \"station_util\": %s}}\n",
      WorkloadName(o.workload), static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(result.window_calls),
      static_cast<unsigned long long>(result.events), digest,
      static_cast<unsigned long long>(result.switches_to_reply),
      static_cast<unsigned long long>(result.switches_to_fetch), station,
      FormatNumber(station_util).c_str());
  std::printf("%s\n", ResultJson(correct, result.finished, result.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
