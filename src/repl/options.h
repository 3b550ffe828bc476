// Tunables of the primary-backup replication layer (docs/replication.md).

#ifndef SRC_REPL_OPTIONS_H_
#define SRC_REPL_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "src/rfp/options.h"
#include "src/sim/time.h"

namespace repl {

// kAsync only: producers stall once (appended - acked) exceeds this, so an
// async backup can never fall arbitrarily far behind.
inline constexpr size_t kMaxAsyncLag = 1024;

// Buckets swept per BucketTable::SnapshotChunk call during backup
// bootstrap; bounds the memory a single chunk pins.
inline constexpr size_t kSnapshotChunkBuckets = 256;

// Interval at which the backup's apply actor drains received-but-unapplied
// records into its partitions. Records still queued at promotion are
// replayed synchronously (repl.replayed).
inline constexpr sim::Time kApplyIntervalNs = sim::Micros(2);

struct ReplOptions {
  // When the primary's PUT/DELETE reply publishes relative to the backup's
  // acknowledgment of the shipped record:
  //   kSync  — reply only after the backup acked (an acked mutation is on two
  //            nodes; zero acked ops are lost across a failover).
  //   kAsync — reply immediately; the shipper drains the log in the
  //            background, stalling producers only when the unacked lag
  //            exceeds kMaxAsyncLag (bounded-lag, default-off).
  enum class AckMode : uint8_t { kSync, kAsync };
  AckMode ack_mode = AckMode::kSync;

  // Failover lease: the coordinator renews the lease on every successful
  // probe of the primary; when the lease has been expired for a full
  // interval with no renewal, the backup is promoted. Bounds unavailability
  // after a primary kill to roughly one lease interval.
  sim::Time lease_interval_ns = sim::Millis(1);

  // Cadence of the coordinator's health probes (an ungated RPC to the
  // primary, answered even while the epoch gate rejects client traffic).
  // Must divide into the lease: probe_interval <= lease_interval. It is also
  // each probe's deadline: a probe that misses it counts as a failure (no
  // lease renewal).
  sim::Time probe_interval_ns = sim::Micros(100);

  // Options of the dedicated replication channel (primary -> backup thread
  // 0). Defaults to a pipelined window so the shipper doorbell-batches a
  // burst of records per flush, with a fetch deadline so a dead backup is
  // noticed instead of waited on forever.
  rfp::RfpOptions channel = DefaultChannelOptions();

  static rfp::RfpOptions DefaultChannelOptions() {
    rfp::RfpOptions ch;
    ch.window = 8;
    ch.fetch_timeout_ns = sim::Micros(200);
    ch.fetch_backoff_initial_ns = sim::Micros(2);
    return ch;
  }
};

// Throws std::invalid_argument when an option set is inconsistent: zero or
// negative intervals, probe slower than the lease, or a lease interval not comfortably above the channel's fetch timeout — a lease
// at or below 2x the fetch timeout could expire while a single healthy probe
// is still retrying its fetch, promoting the backup under a live primary.
void ValidateOptions(const ReplOptions& options);

}  // namespace repl

#endif  // SRC_REPL_OPTIONS_H_
