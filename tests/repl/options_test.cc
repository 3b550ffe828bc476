// ValidateOptions coverage for ReplOptions: every inconsistent knob set is
// rejected with std::invalid_argument, and the shipped defaults (plus the
// cluster defaults built on them) validate.

#include "src/repl/options.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "src/repl/cluster.h"
#include "src/sim/time.h"

namespace repl {
namespace {

TEST(ReplOptionsTest, DefaultsValidate) {
  EXPECT_NO_THROW(ValidateOptions(ReplOptions{}));
  EXPECT_NO_THROW(ValidateOptions(DefaultClusterConfig().repl));
}

TEST(ReplOptionsTest, RejectsInvalidAckMode) {
  ReplOptions options;
  options.ack_mode = static_cast<ReplOptions::AckMode>(7);
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
}

TEST(ReplOptionsTest, RejectsNonPositiveLease) {
  ReplOptions options;
  options.lease_interval_ns = 0;
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
  options.lease_interval_ns = -1;
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
}

TEST(ReplOptionsTest, RejectsNonPositiveProbeInterval) {
  ReplOptions options;
  options.probe_interval_ns = 0;
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
}

TEST(ReplOptionsTest, RejectsProbeSlowerThanLease) {
  ReplOptions options;
  options.lease_interval_ns = sim::Micros(500);
  options.probe_interval_ns = sim::Micros(501);
  options.channel.fetch_timeout_ns = 0;  // isolate the probe/lease rule
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
}

// The failover-safety rule: a lease at or below 2x the replication channel's
// fetch timeout could expire while one healthy probe is still retrying its
// fetch, promoting the backup under a live primary.
TEST(ReplOptionsTest, RejectsLeaseNotAboveTwiceFetchTimeout) {
  ReplOptions options;
  options.channel.fetch_timeout_ns = sim::Micros(200);
  options.probe_interval_ns = sim::Micros(100);

  options.lease_interval_ns = 2 * options.channel.fetch_timeout_ns;  // == 2x: rejected
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
  options.lease_interval_ns = sim::Micros(300);  // below 2x: rejected
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
  options.lease_interval_ns = 2 * options.channel.fetch_timeout_ns + 1;  // above: fine
  EXPECT_NO_THROW(ValidateOptions(options));
  options.channel.fetch_timeout_ns = 0;  // no fetch timeout, no rule
  options.lease_interval_ns = sim::Micros(100);
  EXPECT_NO_THROW(ValidateOptions(options));
}

// Channel misconfiguration propagates through the nested rfp validation.
TEST(ReplOptionsTest, RejectsInvalidChannelOptions) {
  ReplOptions options;
  options.channel.window = 0;
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
}

}  // namespace
}  // namespace repl
