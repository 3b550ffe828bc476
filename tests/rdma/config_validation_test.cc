#include "src/rdma/config.h"

#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace rdma {
namespace {

TEST(ConfigValidationTest, DefaultsAreValid) {
  EXPECT_NO_THROW(ValidateConfig(NicConfig{}));
  EXPECT_NO_THROW(ValidateConfig(FabricConfig{}));
}

// The fixed calibration (kPostCpuNs, kServiceJitter, the kMem* pool
// geometry, ...) is checked by static_asserts in config.h; these tests
// cover the fields that stay settable.

TEST(ConfigValidationTest, RejectsNegativeServiceTimes) {
  NicConfig config;
  config.outbound_issue_ns = -1.0;
  EXPECT_THROW(ValidateConfig(config), std::invalid_argument);
}

TEST(ConfigValidationTest, RejectsBadScalingParameters) {
  {
    NicConfig c;
    c.outbound_write_thread_factor = -0.1;
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
  {
    NicConfig c;
    c.bandwidth_bytes_per_ns = 0.0;  // division by zero in serialization time
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
  {
    NicConfig c;
    c.cores = 0;
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
  {
    NicConfig c;
    c.nic_station_cores = -1;
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
  {
    NicConfig c;
    c.nic_station_cores = c.cores;  // no core left for dispatch workers
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
}

TEST(ConfigValidationTest, RejectsBadMemoryPoolKnobs) {
  {
    // Cap below one arena: the pool could never register anything.
    NicConfig c;
    c.mem_max_registered_bytes = kMemArenaBytes - 1;
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
  // The cap is legal at exactly one arena, and 0 means unbounded.
  {
    NicConfig c;
    c.mem_max_registered_bytes = kMemArenaBytes;
    EXPECT_NO_THROW(ValidateConfig(c));
  }
  {
    NicConfig c;
    c.mem_max_registered_bytes = 0;
    EXPECT_NO_THROW(ValidateConfig(c));
  }
}

TEST(ConfigValidationTest, RejectsOutOfRangeJitterAndNan) {
  {
    NicConfig c;
    c.outbound_issue_ns = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
  {
    NicConfig c;
    c.bandwidth_bytes_per_ns = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
}

TEST(ConfigValidationTest, RejectsBadFabricValues) {
  {
    FabricConfig c;
    c.unreliable_loss_prob = -0.01;
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
  {
    FabricConfig c;
    c.unreliable_loss_prob = 1.01;
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
  {
    // A bad nested NIC config fails fabric validation too.
    FabricConfig c;
    c.nic.cores = -3;
    EXPECT_THROW(ValidateConfig(c), std::invalid_argument);
  }
}

TEST(ConfigValidationTest, ConstructorsFailLoudly) {
  sim::Engine engine;
  FabricConfig bad;
  bad.unreliable_loss_prob = 2.0;
  EXPECT_THROW(Fabric(engine, bad), std::invalid_argument);

  // The error message names the layer and the offending field family.
  try {
    Fabric fabric(engine, bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rdma config"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace rdma
