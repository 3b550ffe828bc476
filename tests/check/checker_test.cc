// Violation corpus for the invariant checker (src/check/): each test builds
// the smallest scenario that trips exactly one checker class and asserts the
// precise `check.violation{kind}` accounting, plus pinning tests for the
// latent bugs the checkers originally uncovered (ServerSend publication
// order, reconnect QP retirement, RC completion ordering under faults).

#include "src/check/checker.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/kv/bucket_table.h"
#include "src/obs/metrics.h"
#include "src/rdma/fabric.h"
#include "src/rfp/channel.h"
#include "src/rfp/wire.h"
#include "src/sim/engine.h"
#include "src/sim/schedule.h"
#include "tests/testutil.h"

namespace check {
namespace {

using rdma::Fabric;
using rdma::MemoryRegion;
using rdma::Node;
using rdma::QueuePair;
using rdma::RemoteKey;
using rdma::WorkCompletion;

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// Saves/restores the global limits so per-test tightening cannot leak.
class ScopedLimits {
 public:
  explicit ScopedLimits(const Limits& limits) : saved_(CurrentLimits()) { SetLimits(limits); }
  ~ScopedLimits() { SetLimits(saved_); }

 private:
  Limits saved_;
};

// All corpus tests run in report mode so violations count instead of throw;
// the fixture's mode is active before any Fabric is constructed (the fabric
// attaches its checker at construction time).
class CheckerCorpusTest : public ::testing::Test {
 protected:
  uint64_t MetricValue(ViolationKind kind) {
    return obs::MetricsRegistry::Default()
        .GetCounter("check.violation", {{"kind", ViolationKindName(kind)}})
        ->value();
  }

  // Asserts `kind` fired exactly `n` times on `fabric`'s checker and that the
  // metrics registry counter moved by the same amount since `metric_before`.
  void ExpectViolations(Fabric& fabric, ViolationKind kind, uint64_t n,
                        uint64_t metric_before) {
    ASSERT_NE(fabric.checker(), nullptr);
    EXPECT_EQ(fabric.checker()->violations(kind), n) << ViolationKindName(kind);
    EXPECT_EQ(MetricValue(kind) - metric_before, n) << ViolationKindName(kind);
  }

  ScopedMode mode_{Mode::kReport};
  sim::Engine engine_;
};

// ---- QP state machine ---------------------------------------------------------

TEST_F(CheckerCorpusTest, PostAfterErrorFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, rdma::kAccessRemoteRead);
  const uint64_t before = MetricValue(ViolationKind::kQpPostAfterError);

  cqp->SetError();
  // First post discovers the error via the kQpError completion — legal.
  WorkCompletion wc =
      rfptest::RunSync(engine_, cqp->Read(*local, 0, remote->remote_key(), 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kQpError);
  ExpectViolations(fabric, ViolationKind::kQpPostAfterError, 0, before);

  // Second post without Recover() means the completion status was ignored.
  wc = rfptest::RunSync(engine_, cqp->Read(*local, 0, remote->remote_key(), 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kQpError);
  ExpectViolations(fabric, ViolationKind::kQpPostAfterError, 1, before);

  // Recovery resets the discovery state: the next post is clean again.
  cqp->Recover();
  wc = rfptest::RunSync(engine_, cqp->Read(*local, 0, remote->remote_key(), 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kSuccess);
  ExpectViolations(fabric, ViolationKind::kQpPostAfterError, 1, before);
}

TEST_F(CheckerCorpusTest, PostOnRetiredFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, rdma::kAccessRemoteRead);
  const uint64_t before = MetricValue(ViolationKind::kQpPostOnRetired);

  fabric.RetireQp(cqp);
  EXPECT_TRUE(cqp->retired());
  WorkCompletion wc =
      rfptest::RunSync(engine_, cqp->Read(*local, 0, remote->remote_key(), 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kQpError);
  ExpectViolations(fabric, ViolationKind::kQpPostOnRetired, 1, before);
}

TEST_F(CheckerCorpusTest, UnsupportedOpFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectUc(a, b);  // UC cannot READ
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, rdma::kAccessRemoteRead);
  const uint64_t before = MetricValue(ViolationKind::kQpUnsupportedOp);

  WorkCompletion wc =
      rfptest::RunSync(engine_, cqp->Read(*local, 0, remote->remote_key(), 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kUnsupportedOp);
  ExpectViolations(fabric, ViolationKind::kQpUnsupportedOp, 1, before);
}

TEST_F(CheckerCorpusTest, WrCapExceededFlagged) {
  Limits tight = CurrentLimits();
  tight.max_outstanding_wr = 2;
  ScopedLimits limits(tight);
  Fabric fabric(engine_);  // checker snapshots the limits at construction
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, rdma::kAccessRemoteWrite);
  const uint64_t before = MetricValue(ViolationKind::kQpWrCapExceeded);

  // Four synchronous-post issues before any completes: in-flight peaks at 4,
  // two posts above the cap of 2.
  for (uint64_t wr = 1; wr <= 4; ++wr) {
    cqp->PostWrite(wr, *local, 0, remote->remote_key(), 0, 8);
  }
  engine_.Run();
  ExpectViolations(fabric, ViolationKind::kQpWrCapExceeded, 2, before);
}

// ---- CQ ----------------------------------------------------------------------

TEST_F(CheckerCorpusTest, CqOverflowFlagged) {
  Limits tight = CurrentLimits();
  tight.cq_capacity = 2;
  ScopedLimits limits(tight);
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, rdma::kAccessRemoteWrite);
  const uint64_t before = MetricValue(ViolationKind::kCqOverflow);

  // Four completions land on the send CQ with nobody polling: depths 3 and 4
  // exceed the capacity of 2.
  for (uint64_t wr = 1; wr <= 4; ++wr) {
    cqp->PostWrite(wr, *local, 0, remote->remote_key(), 0, 8);
  }
  engine_.Run();
  ExpectViolations(fabric, ViolationKind::kCqOverflow, 2, before);
}

TEST_F(CheckerCorpusTest, CompletionOrderFlagged) {
  // Unit-level: feed the checker a reordered completion stream directly (the
  // QP's ticket gate makes this unreachable through the public API — which is
  // exactly what RcCompletionsStayInPostOrderUnderLinkFaults pins).
  FabricChecker checker(nullptr, Mode::kReport);
  checker.OnQpCreated(7, rdma::QpType::kRc);
  checker.OnAsyncPost(7, /*wr_id=*/101);  // post #0
  checker.OnAsyncPost(7, /*wr_id=*/102);  // post #1

  WorkCompletion wc;
  wc.qp_num = 7;
  wc.opcode = rdma::Opcode::kWrite;
  wc.status = rdma::WcStatus::kSuccess;

  wc.wr_id = 102;
  checker.OnCqPush(nullptr, wc, 1);  // post #1 completes first
  EXPECT_EQ(checker.violations(ViolationKind::kCqCompletionOrder), 0u);
  wc.wr_id = 101;
  checker.OnCqPush(nullptr, wc, 2);  // post #0 completes after #1: overtaken
  EXPECT_EQ(checker.violations(ViolationKind::kCqCompletionOrder), 1u);
}

TEST_F(CheckerCorpusTest, ErrorCompletionsMayJumpTheQueue) {
  FabricChecker checker(nullptr, Mode::kReport);
  checker.OnQpCreated(7, rdma::QpType::kRc);
  checker.OnAsyncPost(7, /*wr_id=*/101);  // post #0
  checker.OnAsyncPost(7, /*wr_id=*/102);  // post #1
  checker.OnAsyncPost(7, /*wr_id=*/103);  // post #2

  WorkCompletion wc;
  wc.qp_num = 7;
  wc.opcode = rdma::Opcode::kWrite;

  // Post #1 flushes with an error ahead of #0 — legal (flush semantics).
  wc.wr_id = 102;
  wc.status = rdma::WcStatus::kQpError;
  checker.OnCqPush(nullptr, wc, 1);
  // The successful completions still arrive in post order around the gap.
  wc.status = rdma::WcStatus::kSuccess;
  wc.wr_id = 101;
  checker.OnCqPush(nullptr, wc, 2);
  wc.wr_id = 103;
  checker.OnCqPush(nullptr, wc, 3);
  EXPECT_EQ(checker.violations(ViolationKind::kCqCompletionOrder), 0u);
}

// ---- MR bounds & rkey ---------------------------------------------------------

TEST_F(CheckerCorpusTest, BadRkeyFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  const uint64_t before = MetricValue(ViolationKind::kMrBadRkey);

  WorkCompletion wc = rfptest::RunSync(engine_, cqp->Read(*local, 0, RemoteKey{4242}, 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kRemoteAccessError);
  ExpectViolations(fabric, ViolationKind::kMrBadRkey, 1, before);
}

TEST_F(CheckerCorpusTest, OutOfBoundsReadFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, rdma::kAccessRemoteRead);
  const uint64_t before = MetricValue(ViolationKind::kMrOutOfBounds);

  WorkCompletion wc =
      rfptest::RunSync(engine_, cqp->Read(*local, 0, remote->remote_key(), 60, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kRemoteAccessError);
  ExpectViolations(fabric, ViolationKind::kMrOutOfBounds, 1, before);
}

TEST_F(CheckerCorpusTest, AccessRightsFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* read_only = b.RegisterMemory(64, rdma::kAccessRemoteRead);
  const uint64_t before = MetricValue(ViolationKind::kMrAccessRights);

  WorkCompletion wc =
      rfptest::RunSync(engine_, cqp->Write(*local, 0, read_only->remote_key(), 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kRemoteAccessError);
  ExpectViolations(fabric, ViolationKind::kMrAccessRights, 1, before);
}

TEST_F(CheckerCorpusTest, WrongNodeFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  Node& c = fabric.AddNode("c");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* other = c.RegisterMemory(64, rdma::kAccessRemoteRead);
  const uint64_t before = MetricValue(ViolationKind::kMrWrongNode);

  WorkCompletion wc =
      rfptest::RunSync(engine_, cqp->Read(*local, 0, other->remote_key(), 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kRemoteAccessError);
  ExpectViolations(fabric, ViolationKind::kMrWrongNode, 1, before);
}

TEST_F(CheckerCorpusTest, LocalOutOfBoundsFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(16, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, rdma::kAccessRemoteWrite);
  const uint64_t before = MetricValue(ViolationKind::kMrLocalOutOfBounds);

  WorkCompletion wc =
      rfptest::RunSync(engine_, cqp->Write(*local, 8, remote->remote_key(), 0, 16));
  EXPECT_EQ(wc.status, rdma::WcStatus::kLocalProtError);
  ExpectViolations(fabric, ViolationKind::kMrLocalOutOfBounds, 1, before);
}

TEST_F(CheckerCorpusTest, UseAfterDeregisterFlagged) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(64, rdma::kAccessRemoteRead);
  const RemoteKey stale = remote->remote_key();
  const uint64_t before = MetricValue(ViolationKind::kMrDeregistered);

  fabric.DeregisterMemory(remote);
  WorkCompletion wc = rfptest::RunSync(engine_, cqp->Read(*local, 0, stale, 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kRemoteAccessError);
  ExpectViolations(fabric, ViolationKind::kMrDeregistered, 1, before);
  // Distinct from a never-registered rkey.
  EXPECT_EQ(fabric.checker()->violations(ViolationKind::kMrBadRkey), 0u);
}

// ---- Race detector ------------------------------------------------------------

// One echo exchange over a channel where the server scribbles into the
// response block AFTER publishing — the stored bytes reach the client's
// accepted fetch window with no publication point covering them.
TEST_F(CheckerCorpusTest, FetchStoreRaceFlagged) {
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::Channel channel(fabric, client, server, rfp::RfpOptions{});
  const uint64_t before = MetricValue(ViolationKind::kRaceFetchStore);

  engine_.Spawn([](sim::Engine& eng, Fabric& fab, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> buf(16384);
    size_t n = 0;
    while (!ch->TryServerRecv(buf, &n)) {
      co_await eng.Sleep(sim::Nanos(200));
    }
    co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
    // The bug under test: the server thread reuses the response buffer
    // before the client has fetched it. Model the store both in the bytes
    // and at the checker hook, exactly as Channel::ServerSend does.
    MemoryRegion* mr = fab.FindRemote(RemoteKey{ch->server_rkey()});
    const size_t victim = ch->response_offset() + rfp::kHeaderBytes;
    mr->bytes()[victim] = std::byte{0xEE};
    fab.checker()->OnCpuStore(ch->server_rkey(), victim, 1);
  }(engine_, fabric, &channel));

  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    co_await ch->ClientSend(AsBytes("payload"));
    // Let the server publish AND scribble before the first fetch, so the
    // accepted fetch deterministically snapshots the dirty byte.
    co_await eng.Sleep(sim::Micros(20));
    (void)co_await ch->ClientRecv(out);
  }(engine_, &channel));

  engine_.Run();
  ExpectViolations(fabric, ViolationKind::kRaceFetchStore, 1, before);
}

// The server-side mirror: a local CPU store lands in the request block
// between the client's request WRITE and the server accepting it.
TEST_F(CheckerCorpusTest, RecvStoreRaceFlagged) {
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::Channel channel(fabric, client, server, rfp::RfpOptions{});
  const uint64_t before = MetricValue(ViolationKind::kRaceRecvStore);
  const std::string payload = "payload";

  engine_.Spawn([](sim::Engine& eng, Fabric& fab, rfp::Channel* ch,
                   size_t psize) -> sim::Task<void> {
    // Wait until the request has landed, then scribble the last payload byte
    // (the header stays intact so the poll still matches the sequence).
    co_await eng.Sleep(sim::Micros(5));
    MemoryRegion* mr = fab.FindRemote(RemoteKey{ch->server_rkey()});
    const size_t victim = ch->request_offset() + rfp::kReqHeaderBytes + psize - 1;
    mr->bytes()[victim] = std::byte{0xEE};
    fab.checker()->OnCpuStore(ch->server_rkey(), victim, 1);
    std::vector<std::byte> buf(16384);
    size_t n = 0;
    while (!ch->TryServerRecv(buf, &n)) {
      co_await eng.Sleep(sim::Nanos(200));
    }
    co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
  }(engine_, fabric, &channel, payload.size()));

  engine_.Spawn([](rfp::Channel* ch, std::string msg) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    co_await ch->ClientSend(AsBytes(msg));
    (void)co_await ch->ClientRecv(out);
  }(&channel, payload));

  engine_.Run();
  ExpectViolations(fabric, ViolationKind::kRaceRecvStore, 1, before);
}

// A PUT that mutates a pinned zero-copy entry in place is the entry-reuse
// lifetime bug the pin contract exists to prevent: the descriptor was
// published, the client's entry READ is in flight, and the store scribbles
// the value bytes under it. BucketTable's test-only unsafe_inplace_put knob
// simulates the buggy store; the race detector must attribute exactly one
// race.fetch_store to the entry range.
TEST_F(CheckerCorpusTest, PinnedEntryOverwriteFlagged) {
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::Channel channel(fabric, client, server, rfp::RfpOptions{});
  kv::BucketTable table(64, server);
  table.set_unsafe_inplace_put(true);
  const uint64_t before = MetricValue(ViolationKind::kRaceFetchStore);

  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch,
                   kv::BucketTable* store) -> sim::Task<void> {
    store->Put(AsBytes("k"), AsBytes("AAAA"));
    std::vector<std::byte> buf(16384);
    size_t n = 0;
    while (!ch->TryServerRecv(buf, &n)) {
      co_await eng.Sleep(sim::Nanos(200));
    }
    auto pinned = store->GetPinned(AsBytes("k"));
    EXPECT_TRUE(pinned.has_value());
    if (!pinned.has_value()) {
      co_return;
    }
    rfp::ZeroCopyRef ref;
    ref.rkey = pinned->rkey;
    ref.offset = pinned->offset;
    ref.len = pinned->len;
    ref.epoch = pinned->epoch;
    ref.pin = std::move(pinned->pin);
    co_await ch->ServerSendZeroCopy({}, ref);
    // The bug under test: the channel still pins the entry (the client has
    // not fetched it), yet the store overwrites the value bytes in place.
    store->Put(AsBytes("k"), AsBytes("BBBB"));
  }(engine_, &channel, &table));

  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    co_await ch->ClientSend(AsBytes("get k"));
    // Let the server publish AND overwrite before the fetch, so the entry
    // READ deterministically snapshots the dirty bytes.
    co_await eng.Sleep(sim::Micros(20));
    (void)co_await ch->ClientRecv(out);
  }(engine_, &channel));

  engine_.Run();
  ExpectViolations(fabric, ViolationKind::kRaceFetchStore, 1, before);
  EXPECT_EQ(table.stats().cow_puts, 0u) << "unsafe knob must suppress the COW";
}

// The safe counterpart pins the fix: with the contract honored, the same
// PUT-while-pinned races nothing. The store copies on write (cow_puts), the
// published entry stays frozen, and the client reads the pre-PUT value —
// clean under strict, where any entry-range race would throw.
TEST_F(CheckerCorpusTest, PinnedEntryCowPutIsRaceFreeUnderStrict) {
  ScopedMode strict(Mode::kStrict);
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::Channel channel(fabric, client, server, rfp::RfpOptions{});
  kv::BucketTable table(64, server);

  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch,
                   kv::BucketTable* store) -> sim::Task<void> {
    store->Put(AsBytes("k"), AsBytes("AAAA"));
    std::vector<std::byte> buf(16384);
    size_t n = 0;
    while (!ch->TryServerRecv(buf, &n)) {
      co_await eng.Sleep(sim::Nanos(200));
    }
    auto pinned = store->GetPinned(AsBytes("k"));
    EXPECT_TRUE(pinned.has_value());
    if (!pinned.has_value()) {
      co_return;
    }
    rfp::ZeroCopyRef ref;
    ref.rkey = pinned->rkey;
    ref.offset = pinned->offset;
    ref.len = pinned->len;
    ref.epoch = pinned->epoch;
    ref.pin = std::move(pinned->pin);
    co_await ch->ServerSendZeroCopy({}, ref);
    store->Put(AsBytes("k"), AsBytes("BBBB"));  // pinned: must copy-on-write
  }(engine_, &channel, &table));

  size_t got = 0;
  std::vector<std::byte> out(16384);
  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch, std::vector<std::byte>* buf,
                   size_t* n) -> sim::Task<void> {
    co_await ch->ClientSend(AsBytes("get k"));
    co_await eng.Sleep(sim::Micros(20));
    *n = co_await ch->ClientRecv(*buf);
  }(engine_, &channel, &out, &got));

  engine_.Run();  // strict: an in-place overwrite would have thrown here
  EXPECT_EQ(fabric.checker()->violations(ViolationKind::kRaceFetchStore), 0u);
  EXPECT_EQ(table.stats().cow_puts, 1u);
  ASSERT_EQ(got, 4u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(out.data()), got), "AAAA")
      << "the pinned (pre-PUT) value must be what the client assembled";
  // The store itself moved on: a fresh read sees the new value.
  auto now = table.Get(AsBytes("k"));
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(now->data()), now->size()), "BBBB");
}

// ---- RFP protocol pairing -----------------------------------------------------

// A window=1 channel refuses a second send while the first call is still
// outstanding (its only slot is taken) before anything reaches the wire;
// the checker's pairing rule flags the same overlap on any channel that
// reports it.
TEST_F(CheckerCorpusTest, OverlappingCallFlagged) {
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::Channel channel(fabric, client, server, rfp::RfpOptions{});
  const uint64_t before = MetricValue(ViolationKind::kRfpOverlappingCall);

  bool refused = false;
  engine_.Spawn([](rfp::Channel* ch, bool* refused_out) -> sim::Task<void> {
    co_await ch->ClientSend(AsBytes("first"));
    try {
      co_await ch->ClientSend(AsBytes("second"));  // previous call never received
    } catch (const std::runtime_error&) {
      *refused_out = true;
    }
  }(&channel, &refused));
  engine_.Run();
  EXPECT_TRUE(refused);
  ExpectViolations(fabric, ViolationKind::kRfpOverlappingCall, 0, before);

  FabricChecker checker(nullptr, Mode::kReport);
  int channel_tag = 0;
  checker.OnClientSend(&channel_tag);
  checker.OnClientSend(&channel_tag);
  EXPECT_EQ(checker.violations(ViolationKind::kRfpOverlappingCall), 1u);
}

TEST_F(CheckerCorpusTest, RecvWithoutSendFlagged) {
  FabricChecker checker(nullptr, Mode::kReport);
  int channel_tag = 0;
  checker.OnClientRecvStart(&channel_tag);
  EXPECT_EQ(checker.violations(ViolationKind::kRfpRecvWithoutSend), 1u);
  // A paired send/recv is clean.
  checker.OnClientSend(&channel_tag);
  checker.OnClientRecvStart(&channel_tag);
  checker.OnClientRecvDone(&channel_tag);
  EXPECT_EQ(checker.violations(ViolationKind::kRfpRecvWithoutSend), 1u);
  EXPECT_EQ(checker.violations(ViolationKind::kRfpOverlappingCall), 0u);
}

// A pipelined channel declares its window: that many concurrent submits are
// clean, one more is the overlap violation (slot-granular pairing).
TEST_F(CheckerCorpusTest, SubmitBeyondWindowFlagged) {
  FabricChecker checker(nullptr, Mode::kReport);
  int channel_tag = 0;
  checker.OnChannelWindow(&channel_tag, 2);
  checker.OnClientSend(&channel_tag);
  checker.OnClientSend(&channel_tag);
  EXPECT_EQ(checker.violations(ViolationKind::kRfpOverlappingCall), 0u);
  checker.OnClientSend(&channel_tag);
  EXPECT_EQ(checker.violations(ViolationKind::kRfpOverlappingCall), 1u);
}

// The fetch/store race on a *pipelined* channel, slot-granular: the server
// scribbles slot 1's response region after publishing it; slot 0's region
// stays clean. The batched fetch sweep snapshots both slots, and only the
// accept of slot 1's bytes must flag the race.
TEST_F(CheckerCorpusTest, OverlappingSlotStoreFlagged) {
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::RfpOptions options;
  options.window = 2;
  rfp::Channel channel(fabric, client, server, options);
  const uint64_t before = MetricValue(ViolationKind::kRaceFetchStore);

  engine_.Spawn([](sim::Engine& eng, Fabric& fab, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> buf(16384);
    int served = 0;
    while (served < 2) {
      size_t n = 0;
      if (ch->TryServerRecv(buf, &n)) {
        co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
        ++served;
      } else {
        co_await eng.Sleep(sim::Nanos(200));
      }
    }
    // The bug under test: after publishing both responses the server thread
    // reuses slot 1's response block before the client fetched it.
    MemoryRegion* mr = fab.FindRemote(RemoteKey{ch->server_rkey()});
    const size_t victim =
        ch->response_offset() + ch->response_block_bytes() + rfp::kHeaderBytes;
    mr->bytes()[victim] = std::byte{0xEE};
    fab.checker()->OnCpuStore(ch->server_rkey(), victim, 1);
  }(engine_, fabric, &channel));

  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
    const rfp::Channel::CallHandle a = co_await ch->SubmitCall(AsBytes("slot-zero"));
    const rfp::Channel::CallHandle b = co_await ch->SubmitCall(AsBytes("slot-one"));
    co_await ch->FlushCalls();  // post both requests without fetching yet
    // Let the server publish AND scribble before the first fetch, so the
    // sweep deterministically snapshots slot 1's dirty byte.
    co_await eng.Sleep(sim::Micros(20));
    std::vector<std::byte> out(16384);
    (void)co_await ch->AwaitCall(a, out);
    (void)co_await ch->AwaitCall(b, out);
  }(engine_, &channel));

  engine_.Run();
  ExpectViolations(fabric, ViolationKind::kRaceFetchStore, 1, before);
}

TEST_F(CheckerCorpusTest, SameInstantSlotScribblesFlaggedUnderShuffledPolicy) {
  // Two CPU stores clobber both pipelined response slots at the identical
  // virtual instant, with a shuffled tie-break policy permuting their order.
  // Whatever order the policy picks, both slots are dirty when the client's
  // sweep snapshots them: the verdict must be order-independent, and every
  // violation must carry the decision trace that produced its interleaving.
  for (uint64_t seed : {11u, 12u, 13u}) {
    sim::Engine engine;
    sim::RandomShufflePolicy policy(seed);
    engine.set_schedule_policy(&policy);
    Fabric fabric(engine);
    Node& client = fabric.AddNode("client");
    Node& server = fabric.AddNode("server");
    rfp::RfpOptions options;
    options.window = 2;
    rfp::Channel channel(fabric, client, server, options);
    const uint64_t before = MetricValue(ViolationKind::kRaceFetchStore);

    engine.Spawn([](sim::Engine& eng, Fabric& fab, rfp::Channel* ch) -> sim::Task<void> {
      std::vector<std::byte> buf(16384);
      int served = 0;
      while (served < 2) {
        size_t n = 0;
        if (ch->TryServerRecv(buf, &n)) {
          co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
          ++served;
        } else {
          co_await eng.Sleep(sim::Nanos(200));
        }
      }
      // Both scribbles land at the same instant; the shuffle decides which
      // store the checker's logical clock orders first.
      for (int slot = 0; slot < 2; ++slot) {
        eng.ScheduleAt(eng.now() + sim::Micros(1), [&fab, ch, slot] {
          MemoryRegion* mr = fab.FindRemote(RemoteKey{ch->server_rkey()});
          const size_t victim = ch->response_offset() +
                                static_cast<size_t>(slot) * ch->response_block_bytes() +
                                rfp::kHeaderBytes;
          mr->bytes()[victim] = std::byte{0xEE};
          fab.checker()->OnCpuStore(ch->server_rkey(), victim, 1);
        });
      }
    }(engine, fabric, &channel));

    engine.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
      const rfp::Channel::CallHandle a = co_await ch->SubmitCall(AsBytes("slot-zero"));
      const rfp::Channel::CallHandle b = co_await ch->SubmitCall(AsBytes("slot-one"));
      co_await ch->FlushCalls();
      co_await eng.Sleep(sim::Micros(20));
      std::vector<std::byte> out(16384);
      (void)co_await ch->AwaitCall(a, out);
      (void)co_await ch->AwaitCall(b, out);
    }(engine, &channel));

    engine.Run();
    ASSERT_NE(fabric.checker(), nullptr);
    EXPECT_EQ(fabric.checker()->violations(ViolationKind::kRaceFetchStore), 2u)
        << "seed " << seed;
    EXPECT_EQ(MetricValue(ViolationKind::kRaceFetchStore) - before, 2u);
    // With a policy installed, each recorded violation is replayable.
    for (const Violation& v : fabric.checker()->recent()) {
      EXPECT_FALSE(v.schedule_trace.empty()) << v.detail;
      EXPECT_NE(v.detail.find("[schedule="), std::string::npos) << v.detail;
    }
  }
}

// ---- Modes --------------------------------------------------------------------

TEST_F(CheckerCorpusTest, StrictModeThrowsOutOfTheActor) {
  ScopedMode strict(Mode::kStrict);
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);

  EXPECT_THROW(rfptest::RunSync(engine_, cqp->Read(*local, 0, RemoteKey{4242}, 0, 8)),
               ViolationError);
  EXPECT_EQ(fabric.checker()->violations(ViolationKind::kMrBadRkey), 1u);
}

TEST_F(CheckerCorpusTest, ScopedReportOnlyDowngradesStrict) {
  ScopedMode strict(Mode::kStrict);
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(64, rdma::kAccessLocal);

  ScopedReportOnly tolerate;
  WorkCompletion wc = rfptest::RunSync(engine_, cqp->Read(*local, 0, RemoteKey{4242}, 0, 8));
  EXPECT_EQ(wc.status, rdma::WcStatus::kRemoteAccessError);
  EXPECT_EQ(fabric.checker()->violations(ViolationKind::kMrBadRkey), 1u);
  EXPECT_EQ(fabric.checker()->recent().back().kind, ViolationKind::kMrBadRkey);
}

TEST_F(CheckerCorpusTest, OffModeAttachesNoChecker) {
  ScopedMode off(Mode::kOff);
  Fabric fabric(engine_);
  EXPECT_EQ(fabric.checker(), nullptr);
}

// ---- Pinning tests for the latent bugs the checkers uncovered -----------------

// ServerSend must store payload and checksum BEFORE the header that doubles
// as the publication flag; header-first ordering is exactly the race the
// detector exists to catch. A clean strict echo run pins the fixed order.
TEST_F(CheckerCorpusTest, ServerSendPublicationOrderIsRaceFree) {
  ScopedMode strict(Mode::kStrict);
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::RfpOptions options;
  options.checksum_responses = true;  // widest store window: payload + trailer
  rfp::Channel channel(fabric, client, server, options);

  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> buf(16384);
    int served = 0;
    while (served < 4) {
      size_t n = 0;
      if (ch->TryServerRecv(buf, &n)) {
        co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
        ++served;
      } else {
        co_await eng.Sleep(sim::Nanos(200));
      }
    }
  }(engine_, &channel));
  engine_.Spawn([](rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 4; ++i) {
      co_await ch->ClientSend(AsBytes("ordered"));
      size_t got = co_await ch->ClientRecv(out);
      EXPECT_EQ(got, 7u);
    }
  }(&channel));
  engine_.Run();  // strict: any fetch/store race would throw here
  EXPECT_EQ(fabric.checker()->violations(ViolationKind::kRaceFetchStore), 0u);
  EXPECT_EQ(channel.stats().calls, 4u);
}

// A reconnect must retire the replaced QP pair: the NIC's active-QP census
// stays level (new pair replaces old pair) instead of growing by two per
// reconnect, and the stale endpoints reject posts.
TEST_F(CheckerCorpusTest, ReconnectRetiresReplacedQps) {
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::RfpOptions options;
  options.max_reconnect_attempts = 4;
  rfp::Channel channel(fabric, client, server, options);
  const int census_before = client.nic().active_qps();

  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> buf(16384);
    int served = 0;
    while (served < 2) {
      size_t n = 0;
      if (ch->TryServerRecv(buf, &n)) {
        co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
        ++served;
      } else {
        co_await eng.Sleep(sim::Nanos(200));
      }
    }
  }(engine_, &channel));
  engine_.Spawn([](sim::Engine& eng, Fabric& fab, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    co_await ch->ClientSend(AsBytes("one"));
    (void)co_await ch->ClientRecv(out);
    // Fail every RC QP between the two nodes; the channel reconnects on the
    // next call and must retire the dead pair.
    fab.FailRcQps(0, 1);
    co_await eng.Sleep(sim::Nanos(100));
    co_await ch->ClientSend(AsBytes("two"));
    (void)co_await ch->ClientRecv(out);
  }(engine_, fabric, &channel));
  engine_.Run();

  EXPECT_GE(channel.stats().reconnects, 1u);
  EXPECT_EQ(client.nic().active_qps(), census_before);
  EXPECT_EQ(fabric.checker()->violations(ViolationKind::kQpPostOnRetired), 0u);
}

// RC completions must be delivered in post order even when a faulted link's
// retransmissions reorder packet arrivals (the AwaitTicket sequencer). Pins
// both the ordering and the checker staying quiet about it.
TEST_F(CheckerCorpusTest, RcCompletionsStayInPostOrderUnderLinkFaults) {
  Fabric fabric(engine_);
  Node& a = fabric.AddNode("a");
  Node& b = fabric.AddNode("b");
  auto [cqp, sqp] = fabric.ConnectRc(a, b);
  (void)sqp;
  MemoryRegion* local = a.RegisterMemory(1024, rdma::kAccessLocal);
  MemoryRegion* remote = b.RegisterMemory(1024, rdma::kAccessRemoteRead | rdma::kAccessRemoteWrite);

  // Heavy loss: per-op retransmit counts differ wildly, so without the
  // sequencer later posts would overtake earlier ones.
  rdma::LinkFault fault;
  fault.loss_prob = 0.5;
  fault.rc_retransmit_ns = 4000;
  fabric.SetLinkFault(a.id(), b.id(), fault);

  constexpr int kOps = 16;
  for (uint64_t wr = 1; wr <= kOps; ++wr) {
    cqp->PostWrite(wr, *local, 0, remote->remote_key(), 0, 64);
  }
  std::vector<uint64_t> completion_order;
  engine_.Spawn([](QueuePair* qp, std::vector<uint64_t>* order) -> sim::Task<void> {
    for (int i = 0; i < kOps; ++i) {
      WorkCompletion wc = co_await qp->send_cq()->Wait();
      EXPECT_TRUE(wc.ok());
      order->push_back(wc.wr_id);
    }
  }(cqp, &completion_order));
  engine_.Run();

  ASSERT_EQ(completion_order.size(), static_cast<size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(completion_order[static_cast<size_t>(i)], static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(fabric.checker()->violations(ViolationKind::kCqCompletionOrder), 0u);
}

// Clean traffic stays clean: a strict-mode echo workload with faults off
// produces zero violations of any kind.
TEST_F(CheckerCorpusTest, NormalTrafficCleanUnderStrict) {
  ScopedMode strict(Mode::kStrict);
  Fabric fabric(engine_);
  Node& client = fabric.AddNode("client");
  Node& server = fabric.AddNode("server");
  rfp::Channel channel(fabric, client, server, rfp::RfpOptions{});

  engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> buf(16384);
    int served = 0;
    while (served < 8) {
      size_t n = 0;
      if (ch->TryServerRecv(buf, &n)) {
        co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
        ++served;
      } else {
        co_await eng.Sleep(sim::Nanos(200));
      }
    }
  }(engine_, &channel));
  engine_.Spawn([](rfp::Channel* ch) -> sim::Task<void> {
    std::vector<std::byte> out(16384);
    for (int i = 0; i < 8; ++i) {
      co_await ch->ClientSend(AsBytes("clean"));
      (void)co_await ch->ClientRecv(out);
    }
  }(&channel));
  engine_.Run();
  EXPECT_EQ(fabric.checker()->total_violations(), 0u);
}

// ---- RaceTracker unit tests ---------------------------------------------------

TEST(RaceTrackerTest, StoreThenPublishIsClean) {
  RaceTracker tracker(64);
  tracker.Store(0, 16, 1);
  tracker.Publish(0, 16, 2);
  EXPECT_FALSE(tracker.FirstDirty(0, 16, 3).has_value());
}

TEST(RaceTrackerTest, StoreAfterPublishIsDirty) {
  RaceTracker tracker(64);
  tracker.Publish(0, 16, 1);
  tracker.Store(4, 4, 2);
  auto dirty = tracker.FirstDirty(0, 16, 3);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(dirty->off, 4u);
  EXPECT_EQ(dirty->len, 4u);
  EXPECT_EQ(dirty->store_tick, 2u);
}

TEST(RaceTrackerTest, StoreAfterSnapshotIsInvisible) {
  RaceTracker tracker(64);
  tracker.Publish(0, 16, 1);
  tracker.Store(0, 16, 5);
  // The reader snapshotted at tick 3; the later store cannot have torn it.
  EXPECT_FALSE(tracker.FirstDirty(0, 16, 3).has_value());
  EXPECT_TRUE(tracker.FirstDirty(0, 16, 5).has_value());
}

TEST(RaceTrackerTest, RemoteWriteCleansBytes) {
  RaceTracker tracker(64);
  tracker.Store(0, 16, 1);
  tracker.RemoteWrite(0, 16, 2);
  EXPECT_FALSE(tracker.FirstDirty(0, 16, 3).has_value());
}

TEST(RaceTrackerTest, PartialPublishLeavesRestDirty) {
  RaceTracker tracker(64);
  tracker.Store(0, 16, 1);
  tracker.Publish(0, 8, 2);  // only the first half is published
  auto dirty = tracker.FirstDirty(0, 16, 3);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(dirty->off, 8u);
}

TEST(RaceTrackerTest, RemoteWriteRacingPublicationCleansOnlyItsBytes) {
  // A NIC WRITE lands mid-range while the surrounding bytes sit dirty from a
  // CPU store after the last publication point: the atomic store+publish of
  // the WRITE must not launder its neighbors.
  RaceTracker tracker(64);
  tracker.Publish(0, 16, 1);
  tracker.Store(0, 16, 2);     // whole range dirty again
  tracker.RemoteWrite(4, 4, 3);  // lands atomically inside it
  auto dirty = tracker.FirstDirty(0, 16, 4);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(dirty->off, 0u);  // bytes before the WRITE are still dirty
  EXPECT_EQ(dirty->len, 4u);
  // The WRITE's own bytes are clean; the tail beyond it is not.
  EXPECT_FALSE(tracker.FirstDirty(4, 4, 4).has_value());
  ASSERT_TRUE(tracker.FirstDirty(8, 8, 4).has_value());
}

TEST(RaceTrackerTest, RemoteWriteAfterSnapshotCannotRetroactivelyClean) {
  // The reader snapshotted at tick 3; a WRITE landing at tick 5 is no
  // publication for that earlier read — the dirty store must still surface.
  RaceTracker tracker(64);
  tracker.Publish(0, 8, 1);
  tracker.Store(0, 8, 2);
  tracker.RemoteWrite(0, 8, 5);
  ASSERT_TRUE(tracker.FirstDirty(0, 8, 3).has_value());
  EXPECT_EQ(tracker.FirstDirty(0, 8, 3)->store_tick, 2u);
  EXPECT_FALSE(tracker.FirstDirty(0, 8, 5).has_value());
}

TEST(RaceTrackerTest, StoreAfterRemoteWriteRedirties) {
  RaceTracker tracker(64);
  tracker.RemoteWrite(0, 8, 1);
  tracker.Store(2, 2, 2);
  auto dirty = tracker.FirstDirty(0, 8, 3);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(dirty->off, 2u);
  EXPECT_EQ(dirty->len, 2u);
  EXPECT_EQ(dirty->store_tick, 2u);
}

TEST(RaceTrackerTest, IdenticalTickTiesAreDecidedByLogOrder) {
  // Two events on the same bytes at the same tick: the checker's logical
  // clock normally forbids this, but the tracker's contract is defined —
  // the later-appended event decides (newest-to-oldest log scan). Pinned
  // so a future refactor cannot silently flip the tie to "dirty wins".
  RaceTracker store_then_write(64);
  store_then_write.Store(0, 4, 7);
  store_then_write.RemoteWrite(0, 4, 7);
  EXPECT_FALSE(store_then_write.FirstDirty(0, 4, 7).has_value());

  RaceTracker write_then_store(64);
  write_then_store.RemoteWrite(0, 4, 7);
  write_then_store.Store(0, 4, 7);
  ASSERT_TRUE(write_then_store.FirstDirty(0, 4, 7).has_value());
}

TEST(RaceTrackerTest, CompactionPreservesDirtyState) {
  RaceTracker tracker(8);  // tiny cap: force folds
  uint64_t tick = 0;
  tracker.Store(0, 4, ++tick);  // never published: stays dirty through folds
  for (int i = 0; i < 64; ++i) {
    tracker.Store(100, 4, ++tick);
    tracker.Publish(100, 4, ++tick);
  }
  auto dirty = tracker.FirstDirty(0, 4, tick + 1);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(dirty->off, 0u);
  EXPECT_FALSE(tracker.FirstDirty(100, 4, tick + 1).has_value());
}

}  // namespace
}  // namespace check
