// Crash-driven failover under the schedule explorer (12-schedule CI budget,
// strict checker mode):
//
//   * a whole-node primary kill mid-workload promotes the backup within the
//     lease and loses zero acknowledged PUTs (per-key linearizability oracle
//     across the promotion, plus an explicit last-acked-value check);
//   * two racing coordinators promote exactly once (gate-authoritative
//     idempotence — the epoch advances a single step);
//   * a crash during the snapshot transfer refuses to promote the
//     half-copied backup, re-bootstraps after the primary restarts, and
//     fails over cleanly on a second kill with all data intact.

#include "src/repl/failover.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/explore/explorer.h"
#include "src/explore/history.h"
#include "src/fault/injector.h"
#include "src/rdma/fabric.h"
#include "src/repl/cluster.h"
#include "src/rfp/channel.h"
#include "src/sim/engine.h"
#include "src/sim/schedule.h"
#include "src/sim/time.h"

namespace repl {
namespace {

using explore::Outcome;
using explore::ScenarioRun;

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

std::string TraceOf(sim::Engine& engine) {
  return engine.schedule_policy() != nullptr
             ? sim::FormatDecisionTrace(engine.schedule_policy()->choices())
             : std::string();
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

explore::Options Budget(const std::string& label) {
  explore::Options options;
  options.max_schedules = 12;  // the CI budget, same as the corpus
  options.exhaustive_share_pct = 50;
  options.seed = 1;
  options.label = label;
  return options;
}

void ExpectCleanUnderBudget(const explore::Scenario& scenario, const std::string& label) {
  explore::Report report = explore::Explorer(Budget(label)).Run(scenario);
  EXPECT_FALSE(report.failed) << report.failure_message;
  EXPECT_EQ(report.violations, 0u);
}

// Kill the primary at 350us while closed-loop writers are mid-workload; the
// backup must take over within the lease and every acknowledged PUT must
// survive the promotion.
Outcome KillPrimaryScenario(ScenarioRun& run) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine& eng = run.engine;
  rdma::Fabric fabric(eng);
  Cluster cluster(fabric, FastConfig());
  rdma::Node& client_node = fabric.AddNode("client");
  Client client(cluster, client_node);
  explore::HistoryRecorder rec;
  client.set_history_recorder(&rec);
  cluster.Start();

  fault::FaultInjector injector(fabric);
  injector.BindServer(cluster.primary().node().id(), &cluster.primary().rpc());
  fault::FaultPlan plan;
  plan.ServerCrashAll(sim::Micros(350), cluster.primary().node().id(), sim::Millis(20));
  injector.Arm(plan);

  std::string failure;
  bool done = false;
  eng.Spawn([](sim::Engine& engine, Client* c, std::string* error,
               bool* finished) -> sim::Task<void> {
    const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
    std::map<std::string, std::string> acked;
    try {
      // Rounds at a 100us cadence straddle the 350us kill: rounds 0-3 land
      // on the primary, the round in flight at the kill retries across the
      // failover, the rest land on the promoted backup.
      for (int round = 0; round < 6; ++round) {
        for (const std::string& key : keys) {
          const std::string value = "r" + std::to_string(round);
          if (co_await c->Put(Bytes(key), Bytes(value))) {
            acked[key] = value;
          }
        }
        co_await engine.Sleep(sim::Micros(100));
      }
      std::vector<std::byte> buf(256);
      for (const std::string& key : keys) {
        auto got = co_await c->Get(Bytes(key), buf);
        if (!got.has_value()) {
          *error = "acked key '" + key + "' lost across the failover";
          break;
        }
        const std::string value = ToString({buf.data(), *got});
        if (value != acked[key]) {
          *error = "key '" + key + "': acked '" + acked[key] + "' but read '" + value + "'";
          break;
        }
      }
    } catch (const std::exception& e) {
      *error = e.what();
    }
    *finished = true;
  }(eng, &client, &failure, &done));

  eng.RunUntil(sim::Millis(8));
  cluster.Stop();
  if (!done) {
    return Outcome::Fail("client actor wedged");
  }
  if (!failure.empty()) {
    return Outcome::Fail(failure);
  }
  if (cluster.coordinator().promotions() != 1) {
    return Outcome::Fail("expected exactly one promotion, saw " +
                         std::to_string(cluster.coordinator().promotions()));
  }
  if (cluster.leader_index() != 1 || cluster.epoch() != 2) {
    return Outcome::Fail("backup is not the epoch-2 leader after the kill");
  }
  rec.CheckStrict(TraceOf(eng));  // zero lost acked PUTs, oracle-verified
  return Outcome::Pass(rec.completed_ops());
}

// Two coordinators watch the same primary; after the kill both leases expire
// and both race Promote(). The backup's gate is the authority: the epoch
// must advance exactly once.
Outcome DoublePromotionScenario(ScenarioRun& run) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine& eng = run.engine;
  rdma::Fabric fabric(eng);
  ClusterConfig config = FastConfig();
  Cluster cluster(fabric, config);
  FailoverCoordinator rival(cluster.primary(), cluster.backup(), cluster.replicator(),
                            cluster.sink(), cluster.group_key(), config.repl,
                            /*backup_leader_hint=*/1);
  cluster.Start();
  rival.Start();

  fault::FaultInjector injector(fabric);
  injector.BindServer(cluster.primary().node().id(), &cluster.primary().rpc());
  fault::FaultPlan plan;
  plan.ServerCrashAll(sim::Micros(100), cluster.primary().node().id(), sim::Millis(20));
  injector.Arm(plan);

  eng.RunUntil(sim::Millis(2));
  rival.Stop();
  cluster.Stop();

  if (cluster.leader_index() != 1) {
    return Outcome::Fail("backup was never promoted");
  }
  if (cluster.epoch() != 2) {
    return Outcome::Fail("epoch advanced to " + std::to_string(cluster.epoch()) +
                         ", expected exactly one step to 2");
  }
  const uint64_t total =
      cluster.coordinator().promotions() + rival.promotions();
  if (total != 1) {
    return Outcome::Fail("racing coordinators promoted " + std::to_string(total) + " times");
  }
  if (!cluster.coordinator().promoted() || !rival.promoted()) {
    return Outcome::Fail("a coordinator never observed the promotion");
  }
  return Outcome::Pass(cluster.epoch() * 10 + total);
}

// Crash the primary 5us into a multi-chunk snapshot sweep: the half-copied
// backup must refuse promotion (unavailable, but no split brain and no
// serving from partial state), re-bootstrap when the primary restarts, and
// fail over for real on a second kill with every key intact.
Outcome CrashDuringSnapshotScenario(ScenarioRun& run) {
  check::ScopedMode strict(check::Mode::kStrict);
  sim::Engine& eng = run.engine;
  rdma::Fabric fabric(eng);
  ClusterConfig config = FastConfig();
  // 64 chunks of kSnapshotChunkBuckets per partition: a long sweep window.
  config.kv.buckets_per_partition = 64 * kSnapshotChunkBuckets;
  Cluster cluster(fabric, config);

  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; ++i) {
    const auto key = Bytes("key" + std::to_string(i));
    const auto value = Bytes("val" + std::to_string(i));
    kv::JakiroServer& primary = cluster.primary();
    primary.partition(primary.OwnerThread(key)).Put(key, value);
  }

  rdma::Node& client_node = fabric.AddNode("client");
  Client client(cluster, client_node);
  cluster.Start();

  fault::FaultInjector injector(fabric);
  injector.BindServer(cluster.primary().node().id(), &cluster.primary().rpc());
  fault::FaultPlan plan;
  // First kill lands mid-sweep; the node restarts at 500us, re-attaches,
  // and the second kill at 1.2ms drives the real promotion.
  plan.ServerCrashAll(sim::Micros(5), cluster.primary().node().id(), sim::Micros(495));
  plan.ServerCrashAll(sim::Micros(1200), cluster.primary().node().id(), sim::Millis(20));
  injector.Arm(plan);

  std::string failure;
  bool refused_while_dark = false;
  bool done = false;
  eng.Spawn([](sim::Engine& engine, Cluster* cl, Client* c, bool* refused, std::string* error,
               bool* finished) -> sim::Task<void> {
    try {
      // During the first dark window the lease expires but the un-bootstrapped
      // backup must not take over.
      co_await engine.Sleep(sim::Micros(400));
      *refused = cl->coordinator().promotions_refused() > 0 &&
                 cl->coordinator().promotions() == 0 && cl->leader_index() == 0;
      // Wait out restart + re-bootstrap + second kill + promotion.
      co_await engine.Sleep(sim::Micros(1600) - engine.now());
      std::vector<std::byte> buf(256);
      for (int i = 0; i < kKeys; i += 29) {
        const std::string key = "key" + std::to_string(i);
        auto got = co_await c->Get(Bytes(key), buf);
        if (!got.has_value()) {
          *error = "prefilled key '" + key + "' missing after failover";
          break;
        }
        if (ToString({buf.data(), *got}) != "val" + std::to_string(i)) {
          *error = "prefilled key '" + key + "' has the wrong value";
          break;
        }
      }
      if (error->empty() && (co_await c->Get(Bytes("never-written"), buf)).has_value()) {
        *error = "phantom key appeared on the promoted backup";
      }
    } catch (const std::exception& e) {
      *error = e.what();
    }
    *finished = true;
  }(eng, &cluster, &client, &refused_while_dark, &failure, &done));

  eng.RunUntil(sim::Millis(8));
  cluster.Stop();
  if (!done) {
    return Outcome::Fail("client actor wedged");
  }
  if (!failure.empty()) {
    return Outcome::Fail(failure);
  }
  if (!refused_while_dark) {
    return Outcome::Fail("un-bootstrapped backup was not refused promotion during the "
                         "mid-snapshot dark window");
  }
  if (!cluster.sink().bootstrapped()) {
    return Outcome::Fail("backup never finished its re-bootstrap");
  }
  if (cluster.coordinator().promotions() != 1 || cluster.leader_index() != 1) {
    return Outcome::Fail("expected exactly one (post-re-bootstrap) promotion");
  }
  return Outcome::Pass(cluster.sink().snapshot_items() + cluster.coordinator().promotions());
}

TEST(ReplFailoverTest, KillPrimaryLosesNoAckedWrites) {
  ExpectCleanUnderBudget(&KillPrimaryScenario, "repl_kill_primary");
}

TEST(ReplFailoverTest, RacingCoordinatorsPromoteExactlyOnce) {
  ExpectCleanUnderBudget(&DoublePromotionScenario, "repl_double_promotion");
}

TEST(ReplFailoverTest, CrashDuringSnapshotRefusesThenRecovers) {
  ExpectCleanUnderBudget(&CrashDuringSnapshotScenario, "repl_crash_during_snapshot");
}

}  // namespace
}  // namespace repl
