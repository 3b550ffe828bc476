// Replication-stream semantics on a healthy cluster: sync acks imply the
// backup applied (or queued-then-applied) the mutation, deletes replicate,
// snapshot bootstrap transfers pre-existing data, and async mode bounds the
// log lag instead of blocking every reply.

#include "src/repl/cluster.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/kv/common.h"
#include "src/rdma/fabric.h"
#include "src/repl/replicator.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace repl {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

std::string ToString(std::span<const std::byte> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

ClusterConfig FastConfig() {
  ClusterConfig config = DefaultClusterConfig();
  config.kv.server_threads = 2;
  config.kv.buckets_per_partition = 256;
  config.repl.lease_interval_ns = sim::Micros(150);
  config.repl.probe_interval_ns = sim::Micros(20);
  config.repl.channel.fetch_timeout_ns = sim::Micros(50);
  return config;
}

// Reads `key` straight out of the backup's partition tables.
std::optional<std::string> BackupValue(Cluster& cluster, const std::string& key) {
  const auto kb = Bytes(key);
  auto got = cluster.backup().partition(cluster.backup().OwnerThread(kb)).Get(kb);
  if (!got.has_value()) {
    return std::nullopt;
  }
  return ToString(*got);
}

TEST(ReplicationTest, SyncPutAndDeleteReachTheBackup) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  Cluster cluster(fabric, FastConfig());
  rdma::Node& client_node = fabric.AddNode("client");
  Client client(cluster, client_node);
  cluster.Start();

  bool done = false;
  engine.Spawn([](sim::Engine& eng, Cluster* cl, Client* c, bool* finished) -> sim::Task<void> {
    // Let the (empty-table) bootstrap finish so the puts are sync-acked.
    while (!cl->replicator().attached()) {
      co_await eng.Sleep(sim::Micros(10));
    }
    EXPECT_TRUE(co_await c->Put(Bytes("alpha"), Bytes("one")));
    EXPECT_TRUE(co_await c->Put(Bytes("beta"), Bytes("two")));
    // Sync mode: the ack precedes the reply, so the records are at least
    // queued on the backup; give the apply actor a couple of ticks.
    co_await eng.Sleep(sim::Micros(20));
    EXPECT_EQ(cl->sink().queued(), 0u);
    EXPECT_TRUE(co_await c->Delete(Bytes("alpha")));
    co_await eng.Sleep(sim::Micros(20));
    *finished = true;
  }(engine, &cluster, &client, &done));
  engine.RunUntil(sim::Millis(5));
  cluster.Stop();

  ASSERT_TRUE(done);
  EXPECT_TRUE(cluster.replicator().attached());
  EXPECT_EQ(BackupValue(cluster, "alpha"), std::nullopt);  // deleted everywhere
  EXPECT_EQ(BackupValue(cluster, "beta"), std::optional<std::string>("two"));
  EXPECT_GE(cluster.sink().applied(), 3u);  // two puts + one delete
  EXPECT_EQ(cluster.replicator().log().lag(), 0u);
  EXPECT_GE(cluster.replicator().shipped(), 3u);
}

TEST(ReplicationTest, SnapshotBootstrapTransfersExistingData) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  ClusterConfig config = FastConfig();
  // 16 chunks of kSnapshotChunkBuckets per partition: a multi-chunk sweep.
  config.kv.buckets_per_partition = 16 * kSnapshotChunkBuckets;
  Cluster cluster(fabric, config);

  constexpr int kKeys = 300;
  for (int i = 0; i < kKeys; ++i) {
    const auto key = Bytes("key" + std::to_string(i));
    const auto value = Bytes("val" + std::to_string(i));
    kv::JakiroServer& primary = cluster.primary();
    primary.partition(primary.OwnerThread(key)).Put(key, value);
  }

  cluster.Start();
  engine.RunUntil(sim::Millis(2));
  cluster.Stop();

  EXPECT_TRUE(cluster.replicator().attached());
  EXPECT_TRUE(cluster.sink().bootstrapped());
  EXPECT_EQ(cluster.sink().snapshot_items(), static_cast<uint64_t>(kKeys));
  for (int i = 0; i < kKeys; i += 37) {
    EXPECT_EQ(BackupValue(cluster, "key" + std::to_string(i)),
              std::optional<std::string>("val" + std::to_string(i)))
        << "key" << i;
  }
}

TEST(ReplicationTest, AsyncModeBoundsLagWithoutBlockingEachPut) {
  sim::Engine engine;
  rdma::Fabric fabric(engine);
  ClusterConfig config = FastConfig();
  config.repl.ack_mode = ReplOptions::AckMode::kAsync;
  // The PUT held at the bound waits out the backup's dark window: no client
  // call deadline, and a lease long enough that a primary worker blocked in
  // that PUT's handler cannot get the backup promoted meanwhile.
  config.kv.channel_options.call_deadline_ns = 0;
  config.repl.lease_interval_ns = sim::Millis(50);
  Cluster cluster(fabric, config);
  rdma::Node& client_node = fabric.AddNode("client");
  Client client(cluster, client_node);
  cluster.Start();

  constexpr int kPuts = static_cast<int>(kMaxAsyncLag) + 8;
  struct Progress {
    bool acks_held = false;
    int completed = 0;
    size_t max_lag_at_release = 0;
    bool done = false;
  } progress;

  // Controller: darken the backup worker that serves the replication
  // channel (thread 0), so no record is acked, then check the producer is
  // held at the bound before bringing the worker back.
  engine.Spawn([](sim::Engine& eng, Cluster* cl, Progress* p) -> sim::Task<void> {
    while (!cl->replicator().attached()) {
      co_await eng.Sleep(sim::Micros(10));
    }
    cl->backup().rpc().CrashThread(0);
    p->acks_held = true;
    while (p->completed < static_cast<int>(kMaxAsyncLag)) {
      co_await eng.Sleep(sim::Micros(10));
    }
    co_await eng.Sleep(sim::Micros(200));
    // kMaxAsyncLag PUTs replied without any ack; the next one appended its
    // record and is stalled in the handler until acks resume.
    EXPECT_EQ(p->completed, static_cast<int>(kMaxAsyncLag));
    EXPECT_EQ(cl->replicator().log().lag(), kMaxAsyncLag + 1);
    EXPECT_EQ(cl->replicator().shipped(), 0u);
    cl->backup().rpc().RestartThread(0);
  }(engine, &cluster, &progress));

  engine.Spawn([](sim::Engine& eng, Cluster* cl, Client* c, Progress* p) -> sim::Task<void> {
    while (!p->acks_held) {
      co_await eng.Sleep(sim::Micros(10));
    }
    for (int i = 0; i < kPuts; ++i) {
      EXPECT_TRUE(co_await c->Put(Bytes("k" + std::to_string(i % 8)),
                                  Bytes("v" + std::to_string(i))));
      ++p->completed;
      p->max_lag_at_release = std::max(p->max_lag_at_release, cl->replicator().log().lag());
    }
    // The shipper drains the tail in the background.
    co_await eng.Sleep(sim::Micros(500));
    p->done = true;
  }(engine, &cluster, &client, &progress));
  engine.RunUntil(sim::Millis(30));
  cluster.Stop();

  ASSERT_TRUE(progress.done);
  EXPECT_EQ(progress.completed, kPuts);
  // A producer is released only once the unacked window is within the bound.
  EXPECT_LE(progress.max_lag_at_release, kMaxAsyncLag);
  EXPECT_TRUE(cluster.replicator().attached());
  EXPECT_EQ(cluster.replicator().log().lag(), 0u);
  EXPECT_EQ(cluster.replicator().shipped(), static_cast<uint64_t>(kPuts));
  EXPECT_GE(cluster.sink().applied(), static_cast<uint64_t>(kPuts));
  for (int k = 0; k < 8; ++k) {
    const int last = kPuts - 8 + k;  // the final PUT of key k (kPuts % 8 == 0)
    EXPECT_EQ(BackupValue(cluster, "k" + std::to_string(k)),
              std::optional<std::string>("v" + std::to_string(last)))
        << "k" << k;
  }
}

}  // namespace
}  // namespace repl
