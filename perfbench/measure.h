// Measurement from outside the library: run-scoped counter snapshots read
// through public accessors, exact latency quantiles, and the result printer.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/sim/stats.h"

namespace perfbench {

// The Channel::Stats fields this benchmark reports, summed over channels.
// Kept here rather than merged with a library helper so a field the
// benchmark reports can never be silently dropped.
struct ChannelCounts {
  uint64_t calls = 0;
  uint64_t request_writes = 0;
  uint64_t fetch_reads = 0;
  uint64_t failed_fetches = 0;
  uint64_t extra_fetches = 0;
  uint64_t reply_pushes = 0;
  uint64_t switches_to_reply = 0;
  uint64_t switches_to_fetch = 0;
  uint64_t coalesced_fetches = 0;
  uint64_t coalesced_slots = 0;
  uint64_t batches = 0;    // batch_occupancy samples
  double batch_ops = 0;    // sum of batch_occupancy samples
  int64_t client_busy_ns = 0;
};

// Every counter the per-layer metrics difference, read at one instant.
struct Snapshot {
  uint64_t events = 0;
  uint64_t inbound_ops = 0;   // server NIC
  uint64_t outbound_ops = 0;  // server NIC
  sim::Histogram issue_wait;  // server NIC issue-pipeline wait, cumulative
  ChannelCounts channels;
  std::vector<uint64_t> served_by;  // per server thread
  uint64_t steals = 0;
  uint64_t kv_hits = 0;
  uint64_t kv_misses = 0;
  uint64_t kv_evictions = 0;
  uint64_t kv_cow_puts = 0;
};

Snapshot TakeSnapshot(Cluster& cluster);

// Value at quantile q of `after`'s samples recorded since `before` was
// copied from the same histogram (bucket upper edge, as Histogram does).
int64_t PercentileSince(const sim::Histogram& after, const sim::Histogram& before, double q);

// Quantiles of raw samples; sorts `samples`. Each is the mean of the order
// statistics within 1% of its tail size around the nearest rank: closed-loop
// latencies pile up on a few nanosecond values, and the local mean still
// resolves how a seed shifts them.
std::vector<double> Quantiles(std::vector<int64_t>& samples, const std::vector<double>& qs);

double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Shortest round-trip decimal form of `v` (JSON number).
std::string FormatNumber(double v);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
