// Shared harness for the reproduction benchmarks.
//
// Three runners cover every experiment in the paper:
//  * Raw fabric loops (RawInboundMops / RawOutboundMops / RunAmplification)
//    regenerate the micro-benchmarks of Figs 3-6.
//  * RunEcho drives a controlled-process-time echo RPC over RFP channels
//    (Figs 9, 14, 15 and the switch ablation).
//  * RunKv drives a full 1-server/7-client cluster of one of the four KV
//    systems with a YCSB workload (Figs 10-13, 16-20, Table 3).
//
// Every bench binary prints one aligned table whose rows mirror the paper's
// figure series; EXPERIMENTS.md quotes them directly.

#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/rdma/config.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"
#include "src/workload/ycsb.h"

namespace bench {

// ---- Observability flags (--json / --trace) -----------------------------------
//
// Call first in every bench main. Strips the harness's own flags from argv
// before anything else (google-benchmark included) parses it:
//
//   --json=PATH    additionally write a machine-readable dump of the run:
//                  {bench, schema_version, config, rows, metrics} — the rows
//                  mirror the printed table cell for cell, and the metrics
//                  are the process-wide obs::MetricsRegistry snapshot.
//   --trace=PATH   write a Chrome-trace-event (Perfetto-loadable) file with
//                  virtual-time spans of every simulated run.
//   --seed=N       override the fabric RNG seed and the workload generators'
//                  base seed in every runner, so two invocations with the
//                  same seed replay the identical event schedule. Recorded
//                  in the --json config block when both flags are given.
//   --check[=strict|report]
//                  attach the protocol invariant checker (src/check/) to
//                  every fabric the bench builds: strict (the default form)
//                  aborts the run on the first violation, report counts
//                  violations into check.violation{kind} and keeps going.
//                  Equivalent to RFP_CHECK=...; the resolved mode lands in
//                  the --json config block. See docs/static_analysis.md.
//
// Without any flag the harness is inert: nothing is captured and the text
// output is byte-identical to a build without this layer. Both files are
// written by an atexit hook after all runs (and their destructor-time metric
// flushes) finish. See docs/observability.md for the schemas.
void Init(int& argc, char** argv);

// The shared tracer when --trace is active, nullptr otherwise.
obs::Tracer* GlobalTracer();

// True when --seed=N was given.
bool SeedSet();

// The --seed value when set, `fallback` otherwise. Runners resolve their
// fabric seed as SeedOr(config.fabric.seed) and derive per-thread workload
// seeds from SeedOr's base, so one flag pins the whole run.
uint64_t SeedOr(uint64_t fallback);

// ---- Output helpers ----------------------------------------------------------

void PrintTitle(const std::string& title);
void PrintHeader(const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double value, int precision = 2);
std::string FmtInt(uint64_t value);

// ---- Raw fabric micro-benchmarks (Figs 3-6) -----------------------------------

// Saturated in-bound READ IOPS at the server with `client_nodes x
// threads_per_node` synchronous readers of `size` bytes.
double RawInboundMops(int client_nodes, int threads_per_node, uint32_t size,
                      sim::Time window = sim::Millis(3),
                      const rdma::FabricConfig& fabric = {});

// Out-bound WRITE IOPS of one server issuing to 7 clients with
// `server_threads` synchronous writers.
double RawOutboundMops(int server_threads, uint32_t size, sim::Time window = sim::Millis(3),
                       const rdma::FabricConfig& fabric = {});

// Server-bypass amplification (Fig 6): every request needs `ops_per_request`
// sequential one-sided READs. Returns {request MOPS, raw IOPS}.
struct AmplificationResult {
  double request_mops = 0;
  double iops = 0;
};
AmplificationResult RunAmplification(int ops_per_request, int client_threads,
                                     uint32_t size = 32, sim::Time window = sim::Millis(3));

// The three cluster runners below spread their client threads round-robin
// over 7 client nodes (6 for Pilaf, as in the paper's comparison) and
// measure after a 2 ms warmup (both scaled by RFP_BENCH_SCALE).

// ---- Echo RPC runner (Figs 9, 14, 15) -----------------------------------------

struct EchoRunConfig {
  rfp::RfpOptions channel;          // R, F, force mode, hysteresis
  sim::Time process_ns = 1000;      // server process time P per request
  uint32_t result_size = 1;        // S
  int server_threads = 16;
  int client_threads = 35;
  sim::Time measure = sim::Millis(8);
  rdma::FabricConfig fabric;
};

struct EchoRunResult {
  double mops = 0;
  uint64_t ops = 0;
  sim::Histogram latency;
  double client_cpu = 0;            // mean utilization over the measure window
  rfp::Channel::Stats channels;     // merged over all channels (whole run)
  int channels_in_reply_mode = 0;   // at the end of the run
};

EchoRunResult RunEcho(const EchoRunConfig& config);

// ---- KV cluster runner (Figs 10-13, 16-20, Table 3) ---------------------------

enum class KvSystem {
  kJakiro,          // RFP with adaptive switching
  kJakiroNoSwitch,  // RFP, remote fetching only ("Jakiro w/o switch")
  kServerReply,     // same store, server-reply transport
  kMemcached,       // shared-structure baseline
};

const char* KvSystemName(KvSystem system);

// Preloads every key of the workload, and verifies every GET's bytes.
struct KvRunConfig {
  KvSystem system = KvSystem::kJakiro;
  int server_threads = 6;
  int client_threads = 35;
  workload::WorkloadSpec workload;
  rfp::RfpOptions channel;          // force mode is overridden per system
  rfp::ServerOptions server;        // dispatch tier (multicore, stealing, ...)
  sim::Time measure = sim::Millis(8);
  rdma::FabricConfig fabric;
};

struct KvRunResult {
  double mops = 0;
  uint64_t ops = 0;
  sim::Histogram latency;
  double client_cpu = 0;
  rfp::Channel::Stats channels;
  uint64_t verify_failures = 0;
};

KvRunResult RunKv(const KvRunConfig& config);

// ---- Pilaf (server-bypass) runner (Figs 6 context, 11) ------------------------

struct PilafRunConfig {
  int client_threads = 30;
  workload::WorkloadSpec workload;
  sim::Time measure = sim::Millis(8);
  rdma::FabricConfig fabric;
};

struct PilafRunResult {
  double mops = 0;
  uint64_t ops = 0;
  sim::Histogram latency;
  double reads_per_get = 0;
  uint64_t crc_failures = 0;
  uint64_t verify_failures = 0;
};

PilafRunResult RunPilaf(const PilafRunConfig& config);

// Prints a latency CDF as rows of (microseconds, cumulative %), decimated
// to at most `max_points` points.
void PrintCdf(const std::string& label, const sim::Histogram& latency, int max_points = 25);

// Standard workload of the paper: 16-byte keys, fixed 32-byte values,
// uniform keys, 95% GET.
workload::WorkloadSpec PaperWorkload();

}  // namespace bench

#endif  // BENCH_COMMON_H_
