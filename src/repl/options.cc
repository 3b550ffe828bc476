#include "src/repl/options.h"

#include <stdexcept>
#include <string>

namespace repl {

static_assert(kMaxAsyncLag >= 1, "a zero lag bound would stall every async append");
static_assert(kSnapshotChunkBuckets >= 1);
static_assert(kApplyIntervalNs > 0);

namespace {

[[noreturn]] void Reject(const std::string& why) {
  throw std::invalid_argument("repl options: " + why);
}

}  // namespace

void ValidateOptions(const ReplOptions& options) {
  if (options.ack_mode != ReplOptions::AckMode::kSync &&
      options.ack_mode != ReplOptions::AckMode::kAsync) {
    Reject("ack_mode is not a valid AckMode");
  }
  if (options.lease_interval_ns <= 0) {
    Reject("lease_interval_ns must be positive");
  }
  if (options.probe_interval_ns <= 0) {
    Reject("probe_interval_ns must be positive");
  }
  if (options.probe_interval_ns > options.lease_interval_ns) {
    Reject("probe_interval_ns must not exceed lease_interval_ns (the lease "
           "could expire between two probes of a healthy primary)");
  }
  if (options.channel.fetch_timeout_ns > 0 &&
      options.lease_interval_ns <= 2 * options.channel.fetch_timeout_ns) {
    Reject("lease_interval_ns must exceed 2x the replication channel's "
           "fetch_timeout_ns, or a healthy primary's in-retry probe could "
           "outlive the lease and trigger a spurious promotion");
  }
  rfp::ValidateOptions(options.channel);
}

}  // namespace repl
