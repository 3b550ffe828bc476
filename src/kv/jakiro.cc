#include "src/kv/jakiro.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/explore/history.h"
#include "src/kv/common.h"
#include "src/obs/metrics.h"
#include "src/rdma/memory.h"

namespace kv {

void ConfigBuilder::ForceParadigm(rfp::RfpOptions::ForceMode mode, const char* preset) {
  if (paradigm_forced_ && config_.channel_options.force_mode != mode) {
    throw std::invalid_argument(std::string("jakiro config: ") + preset +
                                " conflicts with the previously forced paradigm — a channel "
                                "cannot force both server-reply and remote-fetch");
  }
  paradigm_forced_ = true;
  config_.channel_options.force_mode = mode;
}

ConfigBuilder& ConfigBuilder::ServerReply() {
  ForceParadigm(rfp::RfpOptions::ForceMode::kForceReply, "ServerReply()");
  return *this;
}

ConfigBuilder& ConfigBuilder::NoSwitch() {
  ForceParadigm(rfp::RfpOptions::ForceMode::kForceFetch, "NoSwitch()");
  return *this;
}

ConfigBuilder& ConfigBuilder::FaultTolerant() {
  rfp::RfpOptions& ch = config_.channel_options;
  ch.fetch_timeout_ns = sim::Micros(200);
  ch.fetch_backoff_initial_ns = sim::Micros(2);
  ch.checksum_responses = true;
  return *this;
}

ConfigBuilder& ConfigBuilder::OverloadProtected() {
  rfp::RfpOptions& ch = config_.channel_options;
  ch.call_deadline_ns = sim::Millis(2);
  ch.breaker_enabled = true;
  config_.server_options.admission_control = true;
  return *this;
}

ConfigBuilder& ConfigBuilder::Pipelined(int window) {
  config_.channel_options.window = window;
  return *this;
}

ConfigBuilder& ConfigBuilder::ZeroCopy() {
  config_.zero_copy_get = true;
  return *this;
}

JakiroServer::JakiroServer(rdma::Fabric& fabric, rdma::Node& node, JakiroConfig config)
    : config_(config), rpc_(fabric, node, config.server_threads, config.server_options) {
  for (int t = 0; t < config_.server_threads; ++t) {
    partitions_.push_back(config_.zero_copy_get
                              ? std::make_unique<BucketTable>(config_.buckets_per_partition, node)
                              : std::make_unique<BucketTable>(config_.buckets_per_partition));
  }
  RegisterHandlers();
}

JakiroServer::~JakiroServer() {
  BucketTable::Stats total;
  for (const auto& partition : partitions_) {
    total.hits += partition->stats().hits;
    total.misses += partition->stats().misses;
    total.inserts += partition->stats().inserts;
    total.updates += partition->stats().updates;
    total.evictions += partition->stats().evictions;
    total.erases += partition->stats().erases;
    total.cow_puts += partition->stats().cow_puts;
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"store", "jakiro"}, {"node", rpc_.node().name()}};
  reg.GetCounter("kv.store.hits", labels)->Add(total.hits);
  reg.GetCounter("kv.store.misses", labels)->Add(total.misses);
  reg.GetCounter("kv.store.inserts", labels)->Add(total.inserts);
  reg.GetCounter("kv.store.updates", labels)->Add(total.updates);
  reg.GetCounter("kv.store.evictions", labels)->Add(total.evictions);
  reg.GetCounter("kv.store.erases", labels)->Add(total.erases);
  reg.GetCounter("kv.store.cow_puts", labels)->Add(total.cow_puts);
}

int JakiroServer::OwnerThread(std::span<const std::byte> key) const {
  // Mix the hash before reducing: the low bits also pick the bucket inside
  // the partition, and reusing them directly would alias.
  return static_cast<int>(sim::Mix64(HashBytes(key)) % static_cast<uint64_t>(num_threads()));
}

void JakiroServer::RegisterHandlers() {
  rpc_.RegisterHandler(kRpcGet, [this](const rfp::HandlerContext& ctx,
                                       std::span<const std::byte> req,
                                       std::span<std::byte> resp) -> rfp::HandlerResult {
    const auto get = DecodeGet(req);
    if (!get.has_value()) {
      return {EncodeStatus(resp, Status::kError), kJakiroGetProcessNs};
    }
    BucketTable& table = partition(ctx.thread_index);
    if (config_.zero_copy_get) {
      // Zero-copy: the prefix is just the 1-byte status; the value travels
      // as an indirect descriptor into the pinned, store-owned entry. The
      // assembled client bytes ([status][value]) match EncodeGetResponse
      // exactly, so the decode path below needs no mode awareness.
      auto pinned = table.GetPinned(get->key);
      if (!pinned.has_value()) {
        return {EncodeStatus(resp, Status::kNotFound), kJakiroGetProcessNs};
      }
      rfp::ZeroCopyRef ref;
      ref.rkey = pinned->rkey;
      ref.offset = pinned->offset;
      ref.len = pinned->len;
      ref.epoch = pinned->epoch;
      ref.pin = std::move(pinned->pin);
      return {EncodeStatus(resp, Status::kOk), kJakiroGetProcessNs, std::move(ref)};
    }
    const auto value = table.Get(get->key);
    if (!value.has_value()) {
      return {EncodeStatus(resp, Status::kNotFound), kJakiroGetProcessNs};
    }
    return {EncodeGetResponse(resp, Status::kOk, *value), kJakiroGetProcessNs};
  });

  // PUT and DELETE are coroutine handlers so the replication hook can
  // suspend them between the local apply and the reply (ship-then-ack:
  // in sync mode the backup holds the op before the client ever sees OK).
  rpc_.RegisterAsyncHandler(
      kRpcPut, [this](const rfp::HandlerContext& ctx, std::span<const std::byte> req,
                      std::span<std::byte> resp) -> sim::Task<rfp::HandlerResult> {
        const auto put = DecodePut(req);
        if (!put.has_value()) {
          co_return rfp::HandlerResult{EncodeStatus(resp, Status::kError),
                                       kJakiroPutProcessNs};
        }
        try {
          partition(ctx.thread_index).Put(put->key, put->value);
        } catch (const mem::ExhaustedError&) {
          // The node's registration budget cannot hold the value (pool-backed
          // partitions only): refuse this PUT and keep serving.
          co_return rfp::HandlerResult{EncodeStatus(resp, Status::kError), kJakiroPutProcessNs};
        }
        if (repl_hook_) {
          co_await repl_hook_(ctx.thread_index, kRpcPut, put->key, put->value);
        }
        co_return rfp::HandlerResult{EncodeStatus(resp, Status::kOk), kJakiroPutProcessNs};
      });

  rpc_.RegisterHandler(kRpcMultiGet, [this](const rfp::HandlerContext& ctx,
                                            std::span<const std::byte> req,
                                            std::span<std::byte> resp) -> rfp::HandlerResult {
    uint16_t count = 0;
    if (req.size() < sizeof(count)) {
      return {EncodeStatus(resp, Status::kError), kJakiroGetProcessNs};
    }
    std::memcpy(&count, req.data(), sizeof(count));
    BucketTable& table = partition(ctx.thread_index);
    size_t in = sizeof(count);
    size_t out = 1 + sizeof(count);
    resp[0] = static_cast<std::byte>(Status::kOk);
    std::memcpy(resp.data() + 1, &count, sizeof(count));
    for (uint16_t i = 0; i < count; ++i) {
      uint16_t key_size = 0;
      if (req.size() < in + sizeof(key_size)) {
        return {EncodeStatus(resp, Status::kError), kJakiroGetProcessNs};
      }
      std::memcpy(&key_size, req.data() + in, sizeof(key_size));
      in += sizeof(key_size);
      if (req.size() < in + key_size) {
        return {EncodeStatus(resp, Status::kError), kJakiroGetProcessNs};
      }
      const auto value = table.Get(req.subspan(in, key_size));
      in += key_size;
      const uint32_t size =
          value.has_value() ? static_cast<uint32_t>(value->size()) : kMultiGetMiss;
      // A legal request can ask for more than the dispatch buffer holds:
      // answer kError (the client's decode throws) instead of overrunning it.
      if (resp.size() - out < sizeof(size) + (value.has_value() ? value->size() : 0)) {
        return {EncodeStatus(resp, Status::kError), kJakiroGetProcessNs};
      }
      std::memcpy(resp.data() + out, &size, sizeof(size));
      out += sizeof(size);
      if (value.has_value()) {
        rdma::CopyBytes(resp.subspan(out, value->size()), *value);
        out += value->size();
      }
    }
    // One hash-table lookup's worth of CPU per key.
    return {out, kJakiroGetProcessNs * count};
  });

  rpc_.RegisterAsyncHandler(
      kRpcDelete, [this](const rfp::HandlerContext& ctx, std::span<const std::byte> req,
                         std::span<std::byte> resp) -> sim::Task<rfp::HandlerResult> {
        const auto del = DecodeGet(req);
        if (!del.has_value()) {
          co_return rfp::HandlerResult{EncodeStatus(resp, Status::kError),
                                       kJakiroPutProcessNs};
        }
        const bool erased = partition(ctx.thread_index).Erase(del->key);
        // Only applied mutations replicate: a miss changed nothing, so the
        // backup has nothing to learn from it.
        if (erased && repl_hook_) {
          co_await repl_hook_(ctx.thread_index, kRpcDelete, del->key, {});
        }
        co_return rfp::HandlerResult{EncodeStatus(resp, erased ? Status::kOk : Status::kNotFound),
                                     kJakiroPutProcessNs};
      });
}

JakiroClient::JakiroClient(JakiroServer& server, rdma::Node& client_node)
    : JakiroClient(server, client_node, conn::Connector::Direct()) {}

JakiroClient::JakiroClient(JakiroServer& server, rdma::Node& client_node,
                           conn::Connector& connector)
    : server_(server) {
  endpoints_ = connector.LeaseAll(server.rpc(), client_node, server.config().channel_options);
  scratch_.resize(server.config().channel_options.max_message_bytes);
}

int JakiroClient::Route(std::span<const std::byte> key) const {
  const int owner = server_.OwnerThread(key);
  // A host-side hint with no simulated effect: the owner's partition looks
  // the key up once the request lands, so its bucket line starts loading
  // while the engine runs the request's transfer.
  server_.partition(owner).Prefetch(key);
  return owner;
}

sim::Task<std::optional<size_t>> JakiroClient::Get(std::span<const std::byte> key,
                                                   std::span<std::byte> value_out) {
  const int owner = Route(key);
  const uint64_t hid =
      recorder_ == nullptr ? 0 : recorder_->OnInvoke(explore::OpKind::kGet, key);
  const size_t req = EncodeGet(scratch_, key);
  const size_t n = co_await endpoints_[static_cast<size_t>(owner)].stub()->Call(
      kRpcGet, std::span<const std::byte>(scratch_.data(), req), scratch_);
  ++operations_;
  if (n < 1 || DecodeStatus(std::span<const std::byte>(scratch_.data(), n)) != Status::kOk) {
    if (recorder_ != nullptr) {
      recorder_->OnGetResponse(hid, false, std::span<const std::byte>());
    }
    co_return std::nullopt;
  }
  const size_t value_size = n - 1;
  if (value_size > value_out.size()) {
    throw std::length_error("jakiro: value larger than output buffer");
  }
  rdma::CopyBytes(value_out.subspan(0, value_size),
                  std::span<const std::byte>(scratch_.data() + 1, value_size));
  if (recorder_ != nullptr) {
    recorder_->OnGetResponse(hid, true, std::span<const std::byte>(value_out.data(), value_size));
  }
  co_return value_size;
}

sim::Task<bool> JakiroClient::Put(std::span<const std::byte> key,
                                  std::span<const std::byte> value) {
  const int owner = Route(key);
  const uint64_t hid =
      recorder_ == nullptr ? 0 : recorder_->OnInvoke(explore::OpKind::kPut, key, value);
  const size_t req = EncodePut(scratch_, key, value);
  const size_t n = co_await endpoints_[static_cast<size_t>(owner)].stub()->Call(
      kRpcPut, std::span<const std::byte>(scratch_.data(), req), scratch_);
  ++operations_;
  const bool ok = n >= 1 &&
      DecodeStatus(std::span<const std::byte>(scratch_.data(), n)) == Status::kOk;
  // A rejected PUT stays pending in the history: the store may or may not
  // have applied it, which is exactly the oracle's model for pending ops.
  if (recorder_ != nullptr && ok) {
    recorder_->OnPutResponse(hid);
  }
  co_return ok;
}

sim::Task<bool> JakiroClient::Delete(std::span<const std::byte> key) {
  const int owner = Route(key);
  const uint64_t hid =
      recorder_ == nullptr ? 0 : recorder_->OnInvoke(explore::OpKind::kDelete, key);
  const size_t req = EncodeDelete(scratch_, key);
  const size_t n = co_await endpoints_[static_cast<size_t>(owner)].stub()->Call(
      kRpcDelete, std::span<const std::byte>(scratch_.data(), req), scratch_);
  ++operations_;
  const bool found = n >= 1 &&
      DecodeStatus(std::span<const std::byte>(scratch_.data(), n)) == Status::kOk;
  if (recorder_ != nullptr) {
    recorder_->OnDeleteResponse(hid, found);
  }
  co_return found;
}

size_t JakiroClient::MultiGetRequestBytes(std::span<const std::span<const std::byte>> keys,
                                          std::span<const size_t> idxs) const {
  if (idxs.size() > UINT16_MAX) {
    throw std::length_error("jakiro multiget: more than 65535 keys for one server thread");
  }
  size_t n = sizeof(uint16_t);
  size_t longest = 0;
  for (size_t idx : idxs) {
    n += sizeof(uint16_t) + keys[idx].size();
    longest = std::max(longest, keys[idx].size());
  }
  CheckRequestFits(scratch_.size(), longest, n);
  return n;
}

size_t JakiroClient::EncodeMultiGet(std::span<const std::span<const std::byte>> keys,
                                    std::span<const size_t> idxs, std::vector<uint64_t>& hids) {
  const uint16_t count = static_cast<uint16_t>(idxs.size());
  size_t n = 0;
  std::memcpy(scratch_.data(), &count, sizeof(count));
  n += sizeof(count);
  for (size_t idx : idxs) {
    const uint16_t key_size = static_cast<uint16_t>(keys[idx].size());
    std::memcpy(scratch_.data() + n, &key_size, sizeof(key_size));
    n += sizeof(key_size);
    std::memcpy(scratch_.data() + n, keys[idx].data(), key_size);
    n += key_size;
    if (recorder_ != nullptr) {
      hids.push_back(recorder_->OnInvoke(explore::OpKind::kGet, keys[idx]));
    }
  }
  return n;
}

void JakiroClient::DecodeMultiGet(
    std::span<const std::byte> resp, std::span<const size_t> idxs,
    std::span<const uint64_t> hids, std::span<std::byte> value_arena, size_t& arena_used,
    std::span<std::optional<std::span<const std::byte>>> values_out) {
  ++operations_;
  if (resp.size() < 3 || DecodeStatus(resp) != Status::kOk) {
    throw std::runtime_error("jakiro multiget: malformed response");
  }
  size_t out = 1 + sizeof(uint16_t);
  for (size_t b = 0; b < idxs.size(); ++b) {
    const size_t idx = idxs[b];
    uint32_t size = 0;
    if (resp.size() - out < sizeof(size)) {
      throw std::runtime_error("jakiro multiget: truncated response");
    }
    std::memcpy(&size, resp.data() + out, sizeof(size));
    out += sizeof(size);
    if (size == kMultiGetMiss) {
      values_out[idx] = std::nullopt;
      if (recorder_ != nullptr) {
        recorder_->OnGetResponse(hids[b], false, std::span<const std::byte>());
      }
      continue;
    }
    if (resp.size() - out < size) {
      throw std::runtime_error("jakiro multiget: truncated response");
    }
    if (arena_used + size > value_arena.size()) {
      throw std::length_error("jakiro multiget: value arena exhausted");
    }
    rdma::CopyBytes(value_arena.subspan(arena_used, size), resp.subspan(out, size));
    values_out[idx] = std::span<const std::byte>(value_arena.data() + arena_used, size);
    if (recorder_ != nullptr) {
      recorder_->OnGetResponse(hids[b], true, *values_out[idx]);
    }
    arena_used += size;
    out += size;
  }
}

sim::Task<void> JakiroClient::MultiGet(
    std::span<const std::span<const std::byte>> keys, std::span<std::byte> value_arena,
    std::span<std::optional<std::span<const std::byte>>> values_out) {
  if (values_out.size() < keys.size()) {
    throw std::invalid_argument("jakiro multiget: values_out smaller than keys");
  }
  // Group key indices by owning server thread (EREW routing).
  std::vector<std::vector<size_t>> by_owner(static_cast<size_t>(server_.num_threads()));
  for (size_t i = 0; i < keys.size(); ++i) {
    by_owner[static_cast<size_t>(server_.OwnerThread(keys[i]))].push_back(i);
  }
  // One call per owner, split into up to `window` contiguous chunks. Every
  // request is sized before the first goes out, so a key set that cannot be
  // encoded throws with nothing in flight.
  struct Chunk {
    size_t stub = 0;
    std::span<const size_t> idxs;  // key indices in this chunk, caller order
  };
  const size_t window =
      std::max<size_t>(1, static_cast<size_t>(server_.config().channel_options.window));
  std::vector<Chunk> chunks;
  for (size_t owner = 0; owner < by_owner.size(); ++owner) {
    const std::vector<size_t>& batch = by_owner[owner];
    if (batch.empty()) {
      continue;
    }
    const size_t parts = std::min(batch.size(), window);
    const size_t per_chunk = (batch.size() + parts - 1) / parts;
    for (size_t begin = 0; begin < batch.size(); begin += per_chunk) {
      chunks.push_back({owner, std::span<const size_t>(batch).subspan(
                                   begin, std::min(per_chunk, batch.size() - begin))});
      MultiGetRequestBytes(keys, chunks.back().idxs);
    }
  }
  size_t arena_used = 0;
  if (window == 1) {
    // Each call completes before the next goes out.
    for (const Chunk& chunk : chunks) {
      std::vector<uint64_t> hids;
      const size_t n = EncodeMultiGet(keys, chunk.idxs, hids);
      const size_t resp_size = co_await endpoints_[chunk.stub].stub()->Call(
          kRpcMultiGet, std::span<const std::byte>(scratch_.data(), n), scratch_);
      DecodeMultiGet(std::span<const std::byte>(scratch_.data(), resp_size), chunk.idxs, hids,
                     value_arena, arena_used, values_out);
    }
    co_return;
  }
  // Pipelined channels (RfpOptions::window > 1): every chunk is staged before
  // the first response is awaited. The staged requests go out in a single
  // doorbell batch when the first await flushes the channel, and their
  // server-side lookups and response fetches overlap across slots.
  struct Pending {
    size_t stub = 0;
    rfp::Channel::CallHandle handle;
    std::span<const size_t> idxs;
    std::vector<uint64_t> hids;      // history op ids (when recording)
    std::vector<std::byte> resp;     // landing buffer: responses overlap, so
                                     // the shared scratch_ cannot hold them
  };
  std::vector<Pending> pending;
  for (const Chunk& chunk : chunks) {
    Pending p;
    p.stub = chunk.stub;
    p.idxs = chunk.idxs;
    const size_t n = EncodeMultiGet(keys, p.idxs, p.hids);
    p.handle = co_await endpoints_[chunk.stub].stub()->SubmitCall(
        kRpcMultiGet, std::span<const std::byte>(scratch_.data(), n));
    p.resp.resize(server_.config().channel_options.max_message_bytes);
    pending.push_back(std::move(p));
  }
  for (Pending& p : pending) {
    const size_t resp_size = co_await endpoints_[p.stub].stub()->AwaitCall(p.handle, p.resp);
    DecodeMultiGet(std::span<const std::byte>(p.resp.data(), resp_size), p.idxs, p.hids,
                   value_arena, arena_used, values_out);
  }
}

sim::Histogram JakiroClient::MergedLatency() const {
  sim::Histogram merged;
  for (const conn::ChannelLease& endpoint : endpoints_) {
    merged.Merge(endpoint.stub()->latency());
  }
  return merged;
}

rfp::Channel::Stats JakiroClient::MergedChannelStats() const {
  rfp::Channel::Stats merged;
  for (const conn::ChannelLease& endpoint : endpoints_) {
    merged.Merge(endpoint.channel()->stats());
  }
  return merged;
}

sim::Time JakiroClient::TotalBusy() const {
  sim::Time total = 0;
  for (const conn::ChannelLease& endpoint : endpoints_) {
    total += endpoint.channel()->client_busy().busy();
  }
  return total;
}

}  // namespace kv
