#include "src/kv/memcached_store.h"

#include <cstring>
#include <optional>
#include <stdexcept>

#include "src/kv/common.h"
#include "src/obs/metrics.h"
#include "src/rdma/memory.h"

namespace kv {

namespace {

std::string KeyString(std::span<const std::byte> key) {
  return std::string(reinterpret_cast<const char*>(key.data()), key.size());
}

}  // namespace

MemcachedServer::MemcachedServer(rdma::Fabric& fabric, rdma::Node& node, MemcachedConfig config)
    : config_([&config] {
        config.channel_options.force_mode = rfp::RfpOptions::ForceMode::kForceReply;
        return config;
      }()),
      rpc_(fabric, node, config_.server_threads),
      pool_(mem::Pool::Shared(node)),
      cache_lock_(fabric.engine()) {
  RegisterHandlers();
}

MemcachedServer::~MemcachedServer() {
  for (auto& [key, item] : items_) {
    pool_->Free(item.span);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"store", "memcached"}, {"node", rpc_.node().name()}};
  reg.GetCounter("kv.store.gets", labels)->Add(stats_.gets);
  reg.GetCounter("kv.store.puts", labels)->Add(stats_.puts);
  reg.GetCounter("kv.store.hits", labels)->Add(stats_.hits);
  reg.GetCounter("kv.store.misses", labels)->Add(stats_.misses);
  reg.GetCounter("kv.store.hot_hits", labels)->Add(stats_.hot_hits);
}

bool MemcachedServer::TouchHotSet(uint64_t key_hash) {
  auto it = hot_index_.find(key_hash);
  if (it != hot_index_.end()) {
    hot_list_.splice(hot_list_.begin(), hot_list_, it->second);
    return true;
  }
  hot_list_.push_front(key_hash);
  hot_index_[key_hash] = hot_list_.begin();
  if (hot_list_.size() > kMemcachedHotSetSize) {
    hot_index_.erase(hot_list_.back());
    hot_list_.pop_back();
  }
  return false;
}

MemcachedServer::Item* MemcachedServer::Lookup(const std::string& key) {
  auto it = items_.find(key);
  return it == items_.end() ? nullptr : &it->second;
}

void MemcachedServer::Store(const std::string& key, std::span<const std::byte> value) {
  auto [it, inserted] = items_.try_emplace(key);
  Item& item = it->second;
  if (inserted) {
    item.span = pool_->Alloc(value.size());
  } else if (value.size() > item.span.size) {
    // Outgrew the slab chunk: swap in a larger one (memcached's slab-class
    // promotion).
    pool_->Free(item.span);
    item.span = pool_->Alloc(value.size());
  }
  item.len = static_cast<uint32_t>(value.size());
  rdma::CopyBytes(item.span.mr->bytes().subspan(item.span.offset, value.size()), value);
}

void MemcachedServer::Preload(std::span<const std::byte> key, std::span<const std::byte> value) {
  Store(KeyString(key), value);
}

void MemcachedServer::RegisterHandlers() {
  sim::Engine& engine = rpc_.node().fabric()->engine();

  rpc_.RegisterAsyncHandler(
      kRpcGet,
      [this, &engine](const rfp::HandlerContext&, std::span<const std::byte> req,
                      std::span<std::byte> resp) -> sim::Task<rfp::HandlerResult> {
        const auto get = DecodeGet(req);
        if (!get.has_value()) {
          co_return rfp::HandlerResult{EncodeStatus(resp, Status::kError), 0};
        }
        const uint64_t h = HashBytes(get->key);
        const bool hot = TouchHotSet(h);
        if (hot) {
          ++stats_.hot_hits;
        }
        const double scale = hot ? kMemcachedHotDiscount : 1.0;
        co_await engine.Sleep(
            static_cast<sim::Time>(static_cast<double>(kMemcachedGetCpuNs) * scale));
        co_await cache_lock_.Lock();
        // Locality also shortens the critical section: the hash chain and
        // LRU nodes of a hot key are cache-resident.
        co_await engine.Sleep(
            static_cast<sim::Time>(static_cast<double>(kMemcachedGetLockNs) * scale));
        Item* item = Lookup(KeyString(get->key));
        ++stats_.gets;
        size_t n = 0;
        if (item == nullptr) {
          ++stats_.misses;
          n = EncodeStatus(resp, Status::kNotFound);
        } else {
          ++stats_.hits;
          n = EncodeGetResponse(resp, Status::kOk, item->value());
        }
        cache_lock_.Unlock();
        co_return rfp::HandlerResult{n, 0};
      });

  rpc_.RegisterAsyncHandler(
      kRpcPut,
      [this, &engine](const rfp::HandlerContext&, std::span<const std::byte> req,
                      std::span<std::byte> resp) -> sim::Task<rfp::HandlerResult> {
        const auto put = DecodePut(req);
        if (!put.has_value()) {
          co_return rfp::HandlerResult{EncodeStatus(resp, Status::kError), 0};
        }
        const uint64_t h = HashBytes(put->key);
        const bool hot = TouchHotSet(h);
        if (hot) {
          ++stats_.hot_hits;
        }
        const double scale = hot ? kMemcachedHotDiscount : 1.0;
        co_await engine.Sleep(
            static_cast<sim::Time>(static_cast<double>(kMemcachedPutCpuNs) * scale));
        co_await cache_lock_.Lock();
        co_await engine.Sleep(
            static_cast<sim::Time>(static_cast<double>(kMemcachedPutLockNs) * scale));
        Store(KeyString(put->key), put->value);
        ++stats_.puts;
        cache_lock_.Unlock();
        co_return rfp::HandlerResult{EncodeStatus(resp, Status::kOk), 0};
      });
}

MemcachedClient::MemcachedClient(MemcachedServer& server, rdma::Node& client_node, int thread) {
  channel_ = server.rpc().AcceptChannel(client_node, server.config().channel_options, thread);
  stub_ = std::make_unique<rfp::RpcClient>(channel_);
  scratch_.resize(server.config().channel_options.max_message_bytes);
}

sim::Task<std::optional<size_t>> MemcachedClient::Get(std::span<const std::byte> key,
                                                      std::span<std::byte> value_out) {
  const size_t req = EncodeGet(scratch_, key);
  const size_t n =
      co_await stub_->Call(kRpcGet, std::span<const std::byte>(scratch_.data(), req), scratch_);
  ++operations_;
  if (n < 1 || DecodeStatus(std::span<const std::byte>(scratch_.data(), n)) != Status::kOk) {
    co_return std::nullopt;
  }
  const size_t value_size = n - 1;
  if (value_size > value_out.size()) {
    throw std::length_error("memcached: value larger than output buffer");
  }
  rdma::CopyBytes(value_out.subspan(0, value_size),
                  std::span<const std::byte>(scratch_.data() + 1, value_size));
  co_return value_size;
}

sim::Task<bool> MemcachedClient::Put(std::span<const std::byte> key,
                                     std::span<const std::byte> value) {
  const size_t req = EncodePut(scratch_, key, value);
  const size_t n =
      co_await stub_->Call(kRpcPut, std::span<const std::byte>(scratch_.data(), req), scratch_);
  ++operations_;
  co_return n >= 1 &&
      DecodeStatus(std::span<const std::byte>(scratch_.data(), n)) == Status::kOk;
}

}  // namespace kv
