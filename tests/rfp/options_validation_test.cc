#include "src/rfp/options.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"

namespace rfp {
namespace {

TEST(OptionsValidationTest, DefaultsAreValid) {
  EXPECT_NO_THROW(ValidateOptions(RfpOptions{}));
  EXPECT_NO_THROW(ValidateOptions(ServerOptions{}));
}

TEST(OptionsValidationTest, RejectsBadChannelCoreOptions) {
  for (auto mutate : {
           +[](RfpOptions& o) { o.retry_threshold = -1; },
           +[](RfpOptions& o) { o.fetch_size = 0; },
           +[](RfpOptions& o) { o.slow_calls_before_switch = 0; },
           +[](RfpOptions& o) { o.max_message_bytes = 0; },
       }) {
    RfpOptions options;
    mutate(options);
    EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
  }
}

TEST(OptionsValidationTest, RejectsBadPipelineOptions) {
  for (auto mutate : {
           +[](RfpOptions& o) { o.window = 0; },
           +[](RfpOptions& o) { o.window = -1; },
           +[](RfpOptions& o) { o.window = kMaxWindow + 1; },
       }) {
    RfpOptions options;
    mutate(options);
    EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
  }
  {
    RfpOptions options;
    options.window = kMaxWindow;
    EXPECT_NO_THROW(ValidateOptions(options));
  }
}

TEST(OptionsValidationTest, RejectsBadFaultToleranceOptions) {
  for (auto mutate : {
           +[](RfpOptions& o) { o.fetch_timeout_ns = -1; },
           +[](RfpOptions& o) { o.fetch_backoff_initial_ns = -1; },
           +[](RfpOptions& o) { o.fetch_backoff_max_ns = -1; },
           +[](RfpOptions& o) { o.max_reconnect_attempts = -1; },
       }) {
    RfpOptions options;
    mutate(options);
    EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
  }
}

TEST(OptionsValidationTest, RejectsBadOverloadOptions) {
  RfpOptions options;
  options.call_deadline_ns = -1;
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
}

TEST(OptionsValidationTest, RejectsBadServerOptions) {
  for (auto mutate : {
           +[](ServerOptions& o) { o.max_message_bytes = 0; },
           +[](ServerOptions& o) { o.overload_hi_watermark_ns = -1; },
           +[](ServerOptions& o) { o.overload_lo_watermark_ns = -1; },
       }) {
    ServerOptions options;
    mutate(options);
    EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
  }
}

TEST(OptionsValidationTest, RejectsInvertedWatermarks) {
  ServerOptions options;
  options.overload_hi_watermark_ns = 5000;
  options.overload_lo_watermark_ns = 10000;  // lo > hi
  EXPECT_THROW(ValidateOptions(options), std::invalid_argument);
  options.overload_lo_watermark_ns = 5000;  // lo == hi is allowed
  EXPECT_NO_THROW(ValidateOptions(options));
}

TEST(OptionsValidationTest, ConstructorsFailLoudly) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  rdma::Node& client = fabric.AddNode("client");
  rdma::Node& server = fabric.AddNode("server");

  RfpOptions bad_channel;
  bad_channel.window = 0;
  EXPECT_THROW(Channel(fabric, client, server, bad_channel), std::invalid_argument);

  ServerOptions bad_server;
  bad_server.overload_lo_watermark_ns = bad_server.overload_hi_watermark_ns + 1;
  EXPECT_THROW(RpcServer(fabric, server, 2, bad_server), std::invalid_argument);

  // The error message names the layer, mirroring "rdma config: ...".
  try {
    RpcServer srv(fabric, server, 2, bad_server);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rfp options"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace rfp
