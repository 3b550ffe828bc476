#include "src/repl/failover.h"

#include <exception>

#include "src/check/checker.h"
#include "src/obs/metrics.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace repl {

FailoverCoordinator::FailoverCoordinator(kv::JakiroServer& primary, kv::JakiroServer& backup,
                                         Replicator& replicator, ReplSink& sink,
                                         const void* group, ReplOptions options,
                                         uint16_t backup_leader_hint)
    : primary_(primary),
      backup_(backup),
      replicator_(replicator),
      sink_(sink),
      group_(group),
      options_(options),
      backup_leader_hint_(backup_leader_hint),
      engine_(backup.node().fabric()->engine()) {
  ValidateOptions(options_);
  rfp::RfpOptions probe_opts;
  probe_opts.window = 1;
  // A probe that outlives its deadline is a failed probe, not a stuck one:
  // the fetch timeout re-issues against a live-but-slow primary, and the
  // call deadline bounds the whole attempt so the loop keeps ticking while
  // the primary is dark.
  const sim::Time probe_deadline = options_.probe_interval_ns;
  probe_opts.fetch_timeout_ns = probe_deadline;
  probe_opts.fetch_backoff_initial_ns = probe_deadline / 8 > 0 ? probe_deadline / 8 : 1;
  probe_opts.call_deadline_ns = probe_deadline;
  probe_channel_ = primary_.rpc().AcceptChannel(backup_.node(), probe_opts, 0);
  probe_stub_ = std::make_unique<rfp::RpcClient>(probe_channel_);
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->NameTrack(reinterpret_cast<uint64_t>(this), "failover " + backup_.node().name());
  }
}

FailoverCoordinator::~FailoverCoordinator() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"node", backup_.node().name()}};
  if (promotions_ > 0) {
    reg.GetCounter("repl.promotions", labels)->Add(promotions_);
  }
  if (promotions_refused_ > 0) {
    reg.GetCounter("repl.promotions_refused", labels)->Add(promotions_refused_);
  }
  if (probes_ > 0) {
    reg.GetCounter("repl.probes", labels)->Add(probes_);
  }
  if (lease_expiries_ > 0) {
    reg.GetCounter("repl.lease_expiries", labels)->Add(lease_expiries_);
  }
}

void FailoverCoordinator::Start() {
  lease_deadline_ = engine_.now() + options_.lease_interval_ns;
  engine_.Spawn(ProbeLoop());
}

sim::Task<bool> FailoverCoordinator::ProbeOnce() {
  std::byte req[1] = {std::byte{0}};
  std::byte resp[16] = {};
  try {
    const size_t rn = co_await probe_stub_->Call(kRpcReplProbe, req, resp);
    co_return rn >= 1 && resp[0] == std::byte{1};
  } catch (const std::exception&) {
    co_return false;
  }
}

sim::Task<void> FailoverCoordinator::ProbeLoop() {
  while (!stop_) {
    co_await engine_.Sleep(options_.probe_interval_ns);
    if (stop_) {
      break;
    }
    if (!promoted_ && backup_.rpc().repl_serving()) {
      // A racing coordinator promoted this node; fall through to the
      // post-promotion watch.
      promoted_ = true;
    }
    if (!promoted_) {
      ++probes_;
      if (co_await ProbeOnce()) {
        lease_deadline_ = engine_.now() + options_.lease_interval_ns;
        // A live primary with no attached backup (fresh start, aborted
        // snapshot, shipping failure) gets a bootstrap attempt. AttachBackup
        // no-ops unless detached, so repeated spawns are harmless.
        if (replicator_.detached()) {
          engine_.Spawn(replicator_.AttachBackup());
        }
      } else {
        ++probe_failures_;
        if (engine_.now() >= lease_deadline_) {
          ++lease_expiries_;
          Promote();
        }
      }
    } else if (unsafe_skip_demotion_ && !resurrection_reported_ &&
               !primary_.rpc().thread_crashed(0) && primary_.rpc().repl_serving()) {
      // Split-brain mutant: the old primary restarted and — because the
      // promotion skipped its demotion — still serves at the stale epoch.
      // Report that epoch to the checker; it regresses the group history
      // and trips the epoch-monotonicity invariant.
      resurrection_reported_ = true;
      if (check::FabricChecker* chk = primary_.node().fabric()->checker()) {
        chk->OnEpochAdvance(group_, pre_promotion_epoch_);
      }
    }
  }
}

void FailoverCoordinator::Promote() {
  if (backup_.rpc().repl_serving()) {
    // Gate-authoritative idempotence: someone already promoted this node
    // (a racing coordinator, or a re-entrant lease expiry). The epoch must
    // not advance twice.
    promoted_ = true;
    return;
  }
  if (!sink_.bootstrapped()) {
    // A half-copied store must not serve. Stay unavailable until the old
    // primary restarts, resumes as leader, and re-runs the bootstrap.
    ++promotions_refused_;
    return;
  }
  const uint32_t old_epoch = primary_.rpc().repl_epoch();
  const uint32_t new_epoch = old_epoch + 1;
  pre_promotion_epoch_ = old_epoch;
  // Replay the acked-but-unapplied tail before the gate opens — acked
  // always implies applied-before-serving — then stop the apply actor so
  // only this node's own handlers mutate its partitions from here on.
  sink_.DrainTail();
  sink_.StopApply();
  if (check::FabricChecker* chk = backup_.node().fabric()->checker()) {
    chk->OnEpochAdvance(group_, new_epoch);
  }
  backup_.rpc().SetReplGate(/*serving=*/true, new_epoch, backup_leader_hint_);
  if (!unsafe_skip_demotion_) {
    // Fence the old primary: restarted, it rejects stale-epoch requests
    // with a redirect toward the new leader.
    primary_.rpc().SetReplGate(/*serving=*/false, new_epoch, backup_leader_hint_);
  }
  replicator_.Detach();
  promoted_ = true;
  promoted_at_ = engine_.now();
  ++promotions_;
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("repl", "promoted", reinterpret_cast<uint64_t>(this), engine_.now());
  }
}

}  // namespace repl
