#include "src/rfp/channel.h"

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace rfp {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// Test server actor: polls the channel, sleeps the per-request process time
// given by `process`, echoes the request back, and exits after `count`
// requests.
sim::Task<void> EchoServer(sim::Engine& eng, Channel* ch, int count,
                           std::function<sim::Time(int)> process) {
  std::vector<std::byte> buf(16384);
  int served = 0;
  while (served < count) {
    if (ch->NeedsReplyResend()) {
      co_await ch->MaybeResendAfterSwitch();
    }
    size_t n = 0;
    if (ch->TryServerRecv(buf, &n)) {
      co_await eng.Sleep(process(served));
      co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
      ++served;
    } else {
      co_await eng.Sleep(sim::Nanos(200));
    }
  }
}

class ChannelTest : public ::testing::Test {
 protected:
  Channel* MakeChannel(const RfpOptions& options) {
    channels_.push_back(std::make_unique<Channel>(fabric_, *client_node_, *server_node_, options));
    return channels_.back().get();
  }

  void RunEcho(Channel* ch, int calls, sim::Time process,
               const std::string& payload = "payload") {
    engine_.Spawn(EchoServer(engine_, ch, calls, [process](int) { return process; }));
    engine_.Spawn([](sim::Engine& eng, Channel* c, int n, std::string msg) -> sim::Task<void> {
      std::vector<std::byte> out(16384);
      for (int i = 0; i < n; ++i) {
        co_await c->ClientSend(AsBytes(msg));
        size_t got = co_await c->ClientRecv(out);
        EXPECT_EQ(got, msg.size());
        EXPECT_EQ(std::memcmp(out.data(), msg.data(), got), 0);
      }
      (void)eng;
    }(engine_, ch, calls, payload));
    engine_.Run();
  }

  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node* client_node_{&fabric_.AddNode("client")};
  rdma::Node* server_node_{&fabric_.AddNode("server")};
  std::vector<std::unique_ptr<Channel>> channels_;
};

TEST_F(ChannelTest, EchoRoundTrip) {
  Channel* ch = MakeChannel(RfpOptions{});
  RunEcho(ch, 1, sim::Nanos(300));
  EXPECT_EQ(ch->stats().calls, 1u);
  EXPECT_EQ(ch->client_mode(), Mode::kRemoteFetch);
  EXPECT_EQ(ch->stats().reply_pushes, 0u);  // pure remote fetching
  EXPECT_GE(ch->stats().fetch_reads, 1u);
}

TEST_F(ChannelTest, ManySequentialCallsMatchSequence) {
  Channel* ch = MakeChannel(RfpOptions{});
  const int n = 200;
  engine_.Spawn(EchoServer(engine_, ch, n, [](int) { return sim::Nanos(300); }));
  engine_.Spawn([](Channel* c, int count) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int i = 0; i < count; ++i) {
      std::string msg = "call-" + std::to_string(i);
      co_await c->ClientSend(AsBytes(msg));
      size_t got = co_await c->ClientRecv(out);
      // Every call must see exactly its own echo, never a stale one.
      // (EXPECT, not ASSERT: gtest's ASSERT returns, which coroutines forbid.)
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got), msg);
    }
  }(ch, n));
  engine_.Run();
  EXPECT_EQ(ch->stats().calls, static_cast<uint64_t>(n));
}

TEST_F(ChannelTest, SmallResponseNeedsSingleFetch) {
  RfpOptions options;
  options.fetch_size = 256;
  Channel* ch = MakeChannel(options);
  RunEcho(ch, 10, sim::Nanos(300), std::string(100, 'x'));  // 100+8 <= 256
  EXPECT_EQ(ch->stats().extra_fetches, 0u);
}

TEST_F(ChannelTest, LargeResponseTriggersRemainderFetch) {
  RfpOptions options;
  options.fetch_size = 256;
  Channel* ch = MakeChannel(options);
  RunEcho(ch, 10, sim::Nanos(300), std::string(1000, 'y'));  // 1000+8 > 256
  EXPECT_EQ(ch->stats().extra_fetches, 10u);
}

TEST_F(ChannelTest, FetchSizeClampedToBlock) {
  RfpOptions options;
  options.fetch_size = 1 << 30;
  Channel* ch = MakeChannel(options);
  // The block (and so the clamp ceiling) is sized by the 16-byte request
  // header even though fetches only ever need response bytes.
  EXPECT_LE(ch->options().fetch_size, options.max_message_bytes + kReqHeaderBytes);
  ch->set_fetch_size(1);
  EXPECT_EQ(ch->options().fetch_size, kHeaderBytes);
}

TEST_F(ChannelTest, ForcedReplyUsesServerPush) {
  RfpOptions options;
  options.force_mode = RfpOptions::ForceMode::kForceReply;
  Channel* ch = MakeChannel(options);
  RunEcho(ch, 5, sim::Nanos(300));
  EXPECT_EQ(ch->client_mode(), Mode::kServerReply);
  EXPECT_EQ(ch->stats().fetch_reads, 0u);   // the client never READs
  EXPECT_EQ(ch->stats().reply_pushes, 5u);  // the server WRITEs every reply
}

TEST_F(ChannelTest, ForcedReplyNeverSwitchesBack) {
  RfpOptions options;
  options.force_mode = RfpOptions::ForceMode::kForceReply;
  Channel* ch = MakeChannel(options);
  RunEcho(ch, 10, sim::Nanos(100));  // fast server would normally trigger switch-back
  EXPECT_EQ(ch->client_mode(), Mode::kServerReply);
  EXPECT_EQ(ch->stats().switches_to_fetch, 0u);
}

TEST_F(ChannelTest, SlowServerTriggersSwitchToReply) {
  RfpOptions options;
  options.retry_threshold = 5;
  options.slow_calls_before_switch = 2;
  Channel* ch = MakeChannel(options);
  // 30 us process time: every call exhausts its 5 retries.
  RunEcho(ch, 4, sim::Micros(30));
  EXPECT_EQ(ch->client_mode(), Mode::kServerReply);
  EXPECT_EQ(ch->stats().switches_to_reply, 1u);
  // The first slow call completed by fetching; from the second the channel
  // is in reply mode.
  EXPECT_GT(ch->stats().reply_pushes, 0u);
}

TEST_F(ChannelTest, SingleSlowCallDoesNotSwitch) {
  RfpOptions options;
  options.retry_threshold = 5;
  options.slow_calls_before_switch = 2;
  Channel* ch = MakeChannel(options);
  // One 30 us call between fast ones: hysteresis must hold the mode.
  engine_.Spawn(EchoServer(engine_, ch, 9, [](int i) {
    return i == 4 ? sim::Micros(30) : sim::Nanos(300);
  }));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 9; ++i) {
      co_await c->ClientSend(AsBytes("m"));
      co_await c->ClientRecv(out);
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->client_mode(), Mode::kRemoteFetch);
  EXPECT_EQ(ch->stats().switches_to_reply, 0u);
}

TEST_F(ChannelTest, FastRepliesSwitchBackToFetching) {
  RfpOptions options;
  options.retry_threshold = 5;
  options.slow_calls_before_switch = 2;
  Channel* ch = MakeChannel(options);
  // Phase 1 (calls 0-3): slow, driving the channel into reply mode.
  // Phase 2 (calls 4+): fast, driving it back to remote fetching.
  engine_.Spawn(EchoServer(engine_, ch, 12, [](int i) {
    return i < 4 ? sim::Micros(30) : sim::Micros(1);
  }));
  engine_.Spawn([](Channel* c) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 12; ++i) {
      co_await c->ClientSend(AsBytes("m"));
      co_await c->ClientRecv(out);
    }
  }(ch));
  engine_.Run();
  EXPECT_EQ(ch->stats().switches_to_reply, 1u);
  EXPECT_EQ(ch->stats().switches_to_fetch, 1u);
  EXPECT_EQ(ch->client_mode(), Mode::kRemoteFetch);
}

TEST_F(ChannelTest, ServerSeesModeFromRequestHeader) {
  Channel* ch = MakeChannel(RfpOptions{});
  RunEcho(ch, 1, sim::Nanos(300));
  EXPECT_EQ(ch->server_visible_mode(), Mode::kRemoteFetch);
}

TEST_F(ChannelTest, RetryHistogramRecordsFailures) {
  Channel* ch = MakeChannel(RfpOptions{});
  RunEcho(ch, 20, sim::Micros(2));  // ~2 us process: a couple of failed fetches
  const auto& hist = ch->stats().retries_per_call;
  EXPECT_EQ(hist.count(), 20u);
  EXPECT_GT(hist.max(), 0);  // some retries happened
  EXPECT_LT(hist.max(), 6);  // but nowhere near the switch threshold
}

TEST_F(ChannelTest, ServerTimeFieldReportsProcessTime) {
  Channel* ch = MakeChannel(RfpOptions{});
  RunEcho(ch, 3, sim::Micros(4));
  EXPECT_GE(ch->last_server_time_us(), 4);
  EXPECT_LE(ch->last_server_time_us(), 6);
}

TEST_F(ChannelTest, ClientBusyHighWhileFetching) {
  Channel* ch = MakeChannel(RfpOptions{});
  RunEcho(ch, 50, sim::Micros(2));
  const double util = ch->client_busy().Utilization(0, engine_.now());
  EXPECT_GT(util, 0.9);  // remote fetching spins the client at ~100% CPU
}

TEST_F(ChannelTest, ClientBusyLowInReplyMode) {
  RfpOptions options;
  options.force_mode = RfpOptions::ForceMode::kForceReply;
  Channel* ch = MakeChannel(options);
  RunEcho(ch, 50, sim::Micros(10));
  const double util = ch->client_busy().Utilization(0, engine_.now());
  EXPECT_LT(util, 0.3);  // paper Fig 15: below 30% after the switch
}

TEST_F(ChannelTest, OversizeRequestThrows) {
  Channel* ch = MakeChannel(RfpOptions{});
  std::vector<std::byte> huge(RfpOptions{}.max_message_bytes + 1);
  engine_.Spawn([](Channel* c, std::span<const std::byte> msg) -> sim::Task<void> {
    co_await c->ClientSend(msg);
  }(ch, huge));
  EXPECT_THROW(engine_.Run(), std::invalid_argument);
}

TEST_F(ChannelTest, SequenceWrapAroundStaysCorrect) {
  // 70k calls push the 16-bit sequence tag through a full wrap; stale
  // responses must never match across the wrap boundary.
  Channel* ch = MakeChannel(RfpOptions{});
  const int n = 70'000;
  engine_.Spawn(EchoServer(engine_, ch, n, [](int) { return sim::Nanos(100); }));
  uint64_t mismatches = 0;
  engine_.Spawn([](Channel* c, int count, uint64_t* bad) -> sim::Task<void> {
    std::vector<std::byte> out(256);
    std::vector<std::byte> msg(4);
    for (int i = 0; i < count; ++i) {
      std::memcpy(msg.data(), &i, 4);
      co_await c->ClientSend(msg);
      size_t got = co_await c->ClientRecv(out);
      int echoed = -1;
      if (got == 4) {
        std::memcpy(&echoed, out.data(), 4);
      }
      if (echoed != i) {
        ++*bad;
      }
    }
  }(ch, n, &mismatches));
  engine_.Run();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(ch->stats().calls, static_cast<uint64_t>(n));
}

TEST_F(ChannelTest, ZeroLengthMessagesRoundTrip) {
  Channel* ch = MakeChannel(RfpOptions{});
  engine_.Spawn(EchoServer(engine_, ch, 3, [](int) { return sim::Nanos(100); }));
  int done = 0;
  engine_.Spawn([](Channel* c, int* out) -> sim::Task<void> {
    std::vector<std::byte> recv(64);
    for (int i = 0; i < 3; ++i) {
      co_await c->ClientSend({});
      size_t got = co_await c->ClientRecv(recv);
      EXPECT_EQ(got, 0u);
      ++*out;
    }
  }(ch, &done));
  engine_.Run();
  EXPECT_EQ(done, 3);
}

TEST_F(ChannelTest, MaxSizeMessagesRoundTrip) {
  RfpOptions options;
  Channel* ch = MakeChannel(options);
  const std::string big(options.max_message_bytes, 'Z');
  RunEcho(ch, 2, sim::Nanos(300), big);
  EXPECT_EQ(ch->stats().extra_fetches, 2u);  // far beyond any fetch size
}

TEST_F(ChannelTest, FetchSizeRetunedMidRunStaysCorrect) {
  // The autotuner may call set_fetch_size while traffic is flowing; calls
  // before and after must both complete with intact payloads.
  RfpOptions options;
  options.fetch_size = 64;
  Channel* ch = MakeChannel(options);
  const std::string payload(200, 'q');  // needs a remainder fetch at F=64
  engine_.Spawn(EchoServer(engine_, ch, 40, [](int) { return sim::Nanos(300); }));
  engine_.Spawn([](Channel* c, std::string msg) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 40; ++i) {
      if (i == 20) {
        c->set_fetch_size(512);  // now one fetch suffices
      }
      co_await c->ClientSend(AsBytes(msg));
      size_t got = co_await c->ClientRecv(out);
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got), msg);
    }
  }(ch, payload));
  engine_.Run();
  // Remainder fetches happened only while F=64 (first 20 calls).
  EXPECT_EQ(ch->stats().extra_fetches, 20u);
}

TEST_F(ChannelTest, SwitchBoundaryImmediateWithMinimalThresholds) {
  // R = 1, slow_calls_before_switch = 1: the very first failed fetch of the
  // very first call must switch mid-call — the mid-call check fires at
  // failed == R with slow_streak_ + 1 >= slow_calls_before_switch.
  RfpOptions options;
  options.retry_threshold = 1;
  options.slow_calls_before_switch = 1;
  Channel* ch = MakeChannel(options);
  RunEcho(ch, 3, sim::Micros(30));
  EXPECT_EQ(ch->stats().switches_to_reply, 1u);
  EXPECT_EQ(ch->client_mode(), Mode::kServerReply);
  // The switch happened on the first failed fetch: exactly one READ went out
  // and it is the only failure ever recorded. Calls 2-3 ran in reply mode,
  // which records nothing on the fetch path, so the histogram holds the one
  // switching call.
  EXPECT_EQ(ch->stats().fetch_reads, 1u);
  EXPECT_EQ(ch->stats().failed_fetches, 1u);
  EXPECT_EQ(ch->stats().retries_per_call.count(), 1u);
  EXPECT_EQ(ch->stats().retries_per_call.min(), 1);
  EXPECT_EQ(ch->stats().retries_per_call.max(), 1);
}

TEST_F(ChannelTest, MidCallAndPostSuccessSlowCountsAgree) {
  // Boundary audit: a call is counted slow exactly once, whether it crosses
  // R mid-call (the `failed == R` check) or completes with >= R failures
  // (the post-success `failed >= R` streak update).
  //
  // With R = 1 and slow_calls_before_switch = 2, the first slow call cannot
  // switch (streak is 0 when it hits failed == 1) and completes by fetching,
  // overshooting R by many failures — but the equality check fires only once
  // per call, and post-success the call still counts as ONE slow call. The
  // second slow call then switches on its first failed fetch. If the two
  // paths double-counted, the first call alone would switch; if the
  // post-success check used `> R`, the overshooting call would be the only
  // one counted and the switch would need a third call.
  RfpOptions options;
  options.retry_threshold = 1;
  options.slow_calls_before_switch = 2;
  Channel* ch = MakeChannel(options);
  RunEcho(ch, 4, sim::Micros(30));
  EXPECT_EQ(ch->stats().switches_to_reply, 1u);
  EXPECT_EQ(ch->client_mode(), Mode::kServerReply);
  // Call 1 recorded its full failure count at success; call 2 recorded
  // exactly 1 failure at the mid-call switch; calls 3-4 ran in reply mode
  // and recorded nothing on the fetch path.
  EXPECT_EQ(ch->stats().retries_per_call.count(), 2u);
  EXPECT_EQ(ch->stats().retries_per_call.min(), 1);
  EXPECT_GT(ch->stats().retries_per_call.max(), 1);
}

TEST_F(ChannelTest, RoundTripsPerCallNearTwoWhenTuned) {
  // The headline accounting of Section 4.3: a request WRITE plus ~1 fetch
  // READ, i.e. ~2.005 round trips per call.
  RfpOptions options;
  options.fetch_size = 256;
  Channel* ch = MakeChannel(options);
  RunEcho(ch, 100, sim::Nanos(300), std::string(32, 'v'));
  EXPECT_GE(ch->stats().RoundTripsPerCall(), 2.0);
  EXPECT_LT(ch->stats().RoundTripsPerCall(), 2.6);
}

}  // namespace
}  // namespace rfp
