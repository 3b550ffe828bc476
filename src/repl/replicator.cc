#include "src/repl/replicator.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/kv/common.h"
#include "src/obs/metrics.h"
#include "src/rdma/fabric.h"
#include "src/sim/engine.h"

namespace repl {

namespace {

// Snapshot item: the record layout with lsn 0 / rpc_id kRpcPut, encoded in
// place (no Record copy per item).
size_t EncodeItem(std::span<std::byte> out, std::span<const std::byte> key,
                  std::span<const std::byte> value) {
  const uint64_t lsn = 0;
  const uint16_t rpc_id = kv::kRpcPut;
  const uint16_t ks = static_cast<uint16_t>(key.size());
  const uint32_t vs = static_cast<uint32_t>(value.size());
  size_t n = 0;
  std::memcpy(out.data() + n, &lsn, sizeof(lsn));
  n += sizeof(lsn);
  std::memcpy(out.data() + n, &rpc_id, sizeof(rpc_id));
  n += sizeof(rpc_id);
  std::memcpy(out.data() + n, &ks, sizeof(ks));
  n += sizeof(ks);
  std::memcpy(out.data() + n, &vs, sizeof(vs));
  n += sizeof(vs);
  std::memcpy(out.data() + n, key.data(), ks);
  n += ks;
  std::memcpy(out.data() + n, value.data(), vs);
  n += vs;
  return n;
}

}  // namespace

void RegisterProbeHandler(rfp::RpcServer& rpc) {
  rpc.RegisterHandler(kRpcReplProbe, [](const rfp::HandlerContext&, std::span<const std::byte>,
                                        std::span<std::byte> resp) -> rfp::HandlerResult {
    resp[0] = std::byte{1};
    return {1, 50};
  });
}

// ---- ReplSink ---------------------------------------------------------------

ReplSink::ReplSink(kv::JakiroServer& server, ReplOptions options)
    : server_(server), options_(options) {
  ValidateOptions(options_);
  RegisterHandlers();
}

ReplSink::~ReplSink() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"node", server_.node().name()}};
  if (applied_ > 0) {
    reg.GetCounter("repl.applied", labels)->Add(applied_);
  }
  if (replayed_ > 0) {
    reg.GetCounter("repl.replayed", labels)->Add(replayed_);
  }
  if (snapshot_items_ > 0) {
    reg.GetCounter("repl.snapshot_items", labels)->Add(snapshot_items_);
  }
  if (rejected_appends_ > 0) {
    reg.GetCounter("repl.rejected_appends", labels)->Add(rejected_appends_);
  }
}

void ReplSink::RegisterHandlers() {
  rfp::RpcServer& rpc = server_.rpc();

  rpc.RegisterHandler(kRpcReplAppend, [this](const rfp::HandlerContext&,
                                             std::span<const std::byte> req,
                                             std::span<std::byte> resp) -> rfp::HandlerResult {
    // Fencing: a node that believes it is the primary takes no appends. A
    // resurrected old primary shipping into a promoted backup is rejected
    // here, which detaches its shipper.
    if (server_.rpc().repl_serving()) {
      ++rejected_appends_;
      resp[0] = std::byte{0};
      return {1, kv::kJakiroPutProcessNs};
    }
    auto record = DecodeRecord(req);
    if (!record.has_value()) {
      resp[0] = std::byte{0};
      return {1, kv::kJakiroPutProcessNs};
    }
    last_lsn_ = record->lsn;
    queue_.push_back(std::move(*record));
    resp[0] = std::byte{1};
    return {1, kv::kJakiroPutProcessNs};
  });

  rpc.RegisterHandler(kRpcReplSnapshot, [this](const rfp::HandlerContext&,
                                               std::span<const std::byte> req,
                                               std::span<std::byte> resp) -> rfp::HandlerResult {
    uint8_t flags = 0;
    uint16_t count = 0;
    if (req.size() < sizeof(flags) + sizeof(count)) {
      resp[0] = std::byte{0};
      return {1, kv::kJakiroPutProcessNs};
    }
    std::memcpy(&flags, req.data(), sizeof(flags));
    std::memcpy(&count, req.data() + sizeof(flags), sizeof(count));
    if ((flags & kSnapBegin) != 0) {
      // Fresh bootstrap: partial state from an aborted earlier sweep (and
      // anything queued against it) must not merge with the new snapshot.
      for (int t = 0; t < server_.num_threads(); ++t) {
        server_.partition(t).Clear();
      }
      queue_.clear();
      bootstrapped_ = false;
    }
    std::span<const std::byte> body = req.subspan(sizeof(flags) + sizeof(count));
    for (uint16_t i = 0; i < count; ++i) {
      auto record = DecodeRecord(body);
      if (!record.has_value()) {
        resp[0] = std::byte{0};
        return {1, kv::kJakiroPutProcessNs};
      }
      body = body.subspan(EncodedSize(*record));
      ApplyRecord(*record);
      ++snapshot_items_;
    }
    if ((flags & kSnapEnd) != 0) {
      bootstrapped_ = true;
    }
    resp[0] = std::byte{1};
    return {1, kv::kJakiroPutProcessNs * std::max<uint16_t>(count, 1)};
  });

  RegisterProbeHandler(rpc);
}

void ReplSink::ApplyRecord(const Record& record) {
  kv::BucketTable& table = server_.partition(server_.OwnerThread(record.key));
  if (record.rpc_id == kv::kRpcDelete) {
    table.Erase(record.key);
  } else {
    table.Put(record.key, record.value);
  }
  ++applied_;
}

sim::Task<void> ReplSink::ApplyLoop() {
  sim::Engine& engine = server_.node().fabric()->engine();
  while (!apply_stop_) {
    co_await engine.Sleep(kApplyIntervalNs);
    while (!apply_stop_ && !queue_.empty()) {
      ApplyRecord(queue_.front());
      queue_.pop_front();
    }
  }
  apply_running_ = false;
}

void ReplSink::Start() {
  if (apply_running_) {
    return;
  }
  apply_running_ = true;
  apply_stop_ = false;
  server_.node().fabric()->engine().Spawn(ApplyLoop());
}

uint64_t ReplSink::DrainTail() {
  uint64_t drained = 0;
  while (!queue_.empty()) {
    ApplyRecord(queue_.front());
    queue_.pop_front();
    ++drained;
  }
  replayed_ += drained;
  return drained;
}

// ---- Replicator -------------------------------------------------------------

Replicator::Replicator(kv::JakiroServer& primary, kv::JakiroServer& backup, ReplOptions options)
    : primary_(primary),
      backup_(backup),
      options_(options),
      engine_(primary.node().fabric()->engine()),
      work_(engine_),
      acked_(engine_) {
  ValidateOptions(options_);
  channel_ = backup_.rpc().AcceptChannel(primary_.node(), options_.channel, 0);
  stub_ = std::make_unique<rfp::RpcClient>(channel_);
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->NameTrack(reinterpret_cast<uint64_t>(this), "replicator " + primary_.node().name());
  }
}

Replicator::~Replicator() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"node", primary_.node().name()}};
  if (shipped_ > 0) {
    reg.GetCounter("repl.shipped", labels)->Add(shipped_);
  }
  if (ship_failures_ > 0) {
    reg.GetCounter("repl.ship_failures", labels)->Add(ship_failures_);
  }
  if (attach_attempts_ > 0) {
    reg.GetCounter("repl.attach_attempts", labels)->Add(attach_attempts_);
  }
  if (sync_waits_ > 0) {
    reg.GetCounter("repl.sync_waits", labels)->Add(sync_waits_);
  }
  if (lag_.count() > 0) {
    reg.GetHistogram("repl.lag", labels)->Merge(lag_);
  }
}

void Replicator::Start() {
  primary_.set_repl_hook([this](int, uint16_t rpc_id, std::span<const std::byte> key,
                                std::span<const std::byte> value) -> sim::Task<void> {
    return OnMutation(rpc_id, key, value);
  });
  engine_.Spawn(ShipLoop());
}

void Replicator::Stop() {
  stop_ = true;
  work_.NotifyAll();
  acked_.NotifyAll();
}

void Replicator::Detach() {
  if (state_ == State::kDetached) {
    return;
  }
  state_ = State::kDetached;
  work_.NotifyAll();
  acked_.NotifyAll();
}

bool Replicator::PrimaryDark() const {
  for (int t = 0; t < primary_.num_threads(); ++t) {
    if (!primary_.rpc().thread_crashed(t)) {
      return false;
    }
  }
  return true;
}

sim::Task<void> Replicator::OnMutation(uint16_t rpc_id, std::span<const std::byte> key,
                                       std::span<const std::byte> value) {
  if (state_ == State::kDetached) {
    co_return;  // no backup: serve unreplicated
  }
  const uint64_t lsn = log_.Append(rpc_id, key, value);
  lag_.Record(static_cast<int64_t>(log_.lag()));
  work_.NotifyAll();
  if (state_ != State::kAttached) {
    // Mid-snapshot appends ship after the sweep; the sync guarantee starts
    // once the backup is attached (an unfinished backup is not promotable,
    // so nothing acked here can be served stale).
    co_return;
  }
  if (options_.ack_mode == ReplOptions::AckMode::kSync) {
    ++sync_waits_;
    while (log_.acked_lsn() < lsn && state_ == State::kAttached && !stop_) {
      co_await acked_.Wait();
    }
  } else {
    while (log_.lag() > kMaxAsyncLag && state_ == State::kAttached && !stop_) {
      co_await acked_.Wait();
    }
  }
}

sim::Task<void> Replicator::ShipLoop() {
  std::vector<std::byte> req(options_.channel.max_message_bytes);
  std::vector<std::byte> resp(16);
  while (!stop_) {
    if (PrimaryDark()) {
      // The shipper is primary CPU: a killed node ships nothing. Poll for
      // restart; appends cannot arrive while every worker is down.
      co_await engine_.Sleep(options_.probe_interval_ns);
      continue;
    }
    if (state_ != State::kAttached || log_.NextToShip() == nullptr) {
      co_await work_.Wait();
      continue;
    }
    const int window = std::max(1, options_.channel.window);
    if (window == 1) {
      const Record* record = log_.NextToShip();
      const uint64_t lsn = record->lsn;
      const size_t n = EncodeRecord(req, *record);
      log_.MarkShipped();
      try {
        const size_t rn =
            co_await stub_->Call(kRpcReplAppend, std::span<const std::byte>(req.data(), n), resp);
        if (rn < 1 || resp[0] != std::byte{1}) {
          Detach();
          continue;
        }
        log_.OnAcked(lsn);
        ++shipped_;
        acked_.NotifyAll();
      } catch (const std::exception&) {
        ++ship_failures_;
        Detach();
      }
      continue;
    }
    // Doorbell-batched: stage up to a window of records, flush in one batch,
    // then collect the acks in order.
    std::vector<std::pair<rfp::Channel::CallHandle, uint64_t>> batch;
    try {
      while (static_cast<int>(batch.size()) < window) {
        const Record* record = log_.NextToShip();
        if (record == nullptr) {
          break;
        }
        const size_t n = EncodeRecord(req, *record);
        auto handle =
            co_await stub_->SubmitCall(kRpcReplAppend, std::span<const std::byte>(req.data(), n));
        batch.emplace_back(handle, record->lsn);
        log_.MarkShipped();
      }
      for (auto& [handle, lsn] : batch) {
        const size_t rn = co_await stub_->AwaitCall(handle, resp);
        if (rn < 1 || resp[0] != std::byte{1}) {
          Detach();
          break;
        }
        log_.OnAcked(lsn);
        ++shipped_;
        acked_.NotifyAll();
      }
    } catch (const std::exception&) {
      ++ship_failures_;
      Detach();
    }
  }
}

sim::Task<bool> Replicator::SendSnapshot(uint8_t flags, std::span<const std::byte> body,
                                         uint16_t count) {
  std::vector<std::byte> msg(sizeof(flags) + sizeof(count) + body.size());
  std::memcpy(msg.data(), &flags, sizeof(flags));
  std::memcpy(msg.data() + sizeof(flags), &count, sizeof(count));
  if (!body.empty()) {
    std::memcpy(msg.data() + sizeof(flags) + sizeof(count), body.data(), body.size());
  }
  std::vector<std::byte> resp(16);
  const size_t rn = co_await stub_->Call(kRpcReplSnapshot, msg, resp);
  co_return rn >= 1 && resp[0] == std::byte{1};
}

sim::Task<void> Replicator::AttachBackup() {
  if (state_ != State::kDetached) {
    co_return;
  }
  state_ = State::kSnapshotting;
  ++attach_attempts_;
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("repl", "attach_begin", reinterpret_cast<uint64_t>(this), engine_.now());
  }
  // Budget per snapshot message: leave headroom for the flags/count prefix.
  const size_t budget = options_.channel.max_message_bytes - 64;
  std::vector<std::byte> body(budget);
  std::vector<kv::BucketTable::SnapshotItem> items;
  try {
    if (!co_await SendSnapshot(kSnapBegin, {}, 0)) {
      state_ = State::kDetached;
      co_return;
    }
    for (int t = 0; t < primary_.num_threads(); ++t) {
      kv::BucketTable& table = primary_.partition(t);
      size_t cursor = 0;
      while (cursor < table.num_buckets()) {
        if (stop_ || PrimaryDark()) {
          // Crash mid-transfer: the sweep dies with the node. The backup
          // stays un-bootstrapped (not promotable); a later probe of the
          // restarted primary re-runs AttachBackup from scratch.
          state_ = State::kDetached;
          co_return;
        }
        items.clear();
        cursor = table.SnapshotChunk(cursor, kSnapshotChunkBuckets, &items);
        size_t i = 0;
        while (i < items.size()) {
          size_t used = 0;
          uint16_t count = 0;
          while (i < items.size()) {
            const size_t need =
                kRecordHeaderBytes + items[i].key.size() + items[i].value.size();
            if (used + need > budget) {
              break;
            }
            used += EncodeItem(std::span<std::byte>(body.data() + used, need), items[i].key,
                               items[i].value);
            ++count;
            ++i;
          }
          if (count == 0) {
            throw std::length_error("repl: snapshot item larger than one message");
          }
          if (!co_await SendSnapshot(0, std::span<const std::byte>(body.data(), used), count)) {
            state_ = State::kDetached;
            co_return;
          }
        }
      }
    }
    if (stop_ || PrimaryDark() || !co_await SendSnapshot(kSnapEnd, {}, 0)) {
      state_ = State::kDetached;
      co_return;
    }
  } catch (const std::length_error&) {
    throw;  // configuration error, not a transport fault
  } catch (const std::exception&) {
    ++ship_failures_;
    state_ = State::kDetached;
    co_return;
  }
  state_ = State::kAttached;
  if (sim::TraceSink* trace = engine_.trace_sink()) {
    trace->Instant("repl", "attached", reinterpret_cast<uint64_t>(this), engine_.now());
  }
  work_.NotifyAll();
}

}  // namespace repl
