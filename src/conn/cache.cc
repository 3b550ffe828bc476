#include "src/conn/cache.h"

#include <cassert>
#include <functional>
#include <utility>

#include "src/obs/metrics.h"
#include "src/rfp/channel.h"

namespace conn {

// ---- ChannelLease -------------------------------------------------------------

ChannelLease::ChannelLease(ChannelLease&& other) noexcept
    : channel_(other.channel_),
      stub_(other.stub_),
      owned_stub_(std::move(other.owned_stub_)),
      cache_(other.cache_),
      entry_(other.entry_) {
  other.channel_ = nullptr;
  other.stub_ = nullptr;
  other.cache_ = nullptr;
  other.entry_ = nullptr;
}

ChannelLease& ChannelLease::operator=(ChannelLease&& other) noexcept {
  if (this != &other) {
    Release();
    channel_ = other.channel_;
    stub_ = other.stub_;
    owned_stub_ = std::move(other.owned_stub_);
    cache_ = other.cache_;
    entry_ = other.entry_;
    other.channel_ = nullptr;
    other.stub_ = nullptr;
    other.cache_ = nullptr;
    other.entry_ = nullptr;
  }
  return *this;
}

void ChannelLease::Release() {
  owned_stub_.reset();
  if (cache_ != nullptr && entry_ != nullptr) {
    cache_->Release(entry_);
  }
  channel_ = nullptr;
  stub_ = nullptr;
  cache_ = nullptr;
  entry_ = nullptr;
}

// ---- ChannelCache -------------------------------------------------------------

size_t ChannelCache::KeyHash::operator()(const Key& key) const {
  size_t h = std::hash<const void*>{}(key.server);
  h ^= std::hash<const void*>{}(key.client) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= std::hash<int>{}(key.thread) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

ChannelCache::ChannelCache(CacheOptions options) : options_(options) {}

ChannelCache::~ChannelCache() {
  for (Entry& entry : entries_) {
    DestroyEntry(entry);
  }
  // Doomed entries still pinned at this point mean a lease outlived the
  // cache — a contract violation; destroy anyway rather than leak.
  for (Entry& entry : doomed_) {
    DestroyEntry(entry);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("conn.cache.hits", {})->Add(stats_.hits);
  reg.GetCounter("conn.cache.misses", {})->Add(stats_.misses);
  if (stats_.evictions > 0) {
    reg.GetCounter("conn.cache.evictions", {})->Add(stats_.evictions);
  }
  if (stats_.detach_evictions > 0) {
    reg.GetCounter("conn.cache.detach_evictions", {})->Add(stats_.detach_evictions);
  }
}

ChannelLease ChannelCache::MakeLease(Entry& entry) {
  ++entry.pins;
  ChannelLease lease;
  lease.channel_ = entry.channel;
  lease.stub_ = entry.stub.get();
  lease.cache_ = this;
  lease.entry_ = &entry;
  return lease;
}

ChannelLease ChannelCache::Get(rfp::RpcServer& server, rdma::Node& client,
                               const rfp::RfpOptions& options, int thread) {
  const Key key{&server, &client, thread};
  auto idx = index_.find(key);
  if (idx != index_.end()) {
    ++stats_.hits;
    entries_.splice(entries_.begin(), entries_, idx->second);
    return MakeLease(*idx->second);
  }
  ++stats_.misses;
  // Pool-backed establishment: AcceptChannel draws its rings from the node
  // pools, so a re-establish after eviction reuses the freed MRs and the
  // fabric registration census stays flat.
  rfp::Channel* channel = server.AcceptChannel(client, options, thread);
  TrimToCapacity();
  entries_.push_front(Entry{key, channel, std::make_unique<rfp::RpcClient>(channel),
                            /*pins=*/0, /*doomed=*/false});
  index_[key] = entries_.begin();
  return MakeLease(entries_.front());
}

bool ChannelCache::Evict(rfp::RpcServer& server, rdma::Node& client, int thread) {
  const auto idx = index_.find(Key{&server, &client, thread});
  if (idx == index_.end()) {
    return false;
  }
  if (idx->second->pins > 0) {
    Doom(idx->second);
  } else {
    EvictIdle(idx->second);
  }
  return true;
}

void ChannelCache::TrimToCapacity() {
  if (options_.max_channels <= 0) {
    return;
  }
  while (entries_.size() >= static_cast<size_t>(options_.max_channels)) {
    // LRU-most idle entry: the list runs MRU -> LRU, so keep the last
    // unpinned one seen.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->pins == 0) {
        victim = it;
      }
    }
    if (victim != entries_.end()) {
      EvictIdle(victim);
      continue;
    }
    // Everything is pinned: detach the LRU victim. Its leases ride the
    // reconnect path; the entry is destroyed on their last Release.
    Doom(std::prev(entries_.end()));
  }
}

void ChannelCache::EvictIdle(std::list<Entry>::iterator it) {
  index_.erase(it->key);
  ++stats_.evictions;
  DestroyEntry(*it);
  entries_.erase(it);
}

void ChannelCache::Doom(std::list<Entry>::iterator it) {
  index_.erase(it->key);
  ++stats_.evictions;
  ++stats_.detach_evictions;
  it->doomed = true;
  it->channel->Detach();
  doomed_.splice(doomed_.begin(), entries_, it);
}

void ChannelCache::Release(void* opaque_entry) {
  Entry* entry = static_cast<Entry*>(opaque_entry);
  assert(entry->pins > 0);
  --entry->pins;
  if (!entry->doomed || entry->pins > 0) {
    return;
  }
  for (auto it = doomed_.begin(); it != doomed_.end(); ++it) {
    if (&*it == entry) {
      DestroyEntry(*it);
      doomed_.erase(it);
      return;
    }
  }
}

void ChannelCache::DestroyEntry(Entry& entry) {
  // The stub references the channel in its destructor (metrics flush), so it
  // must go first; CloseChannel then destroys the channel, returning its
  // rings to the pools without deregistering.
  entry.stub.reset();
  entry.key.server->CloseChannel(entry.channel);
  entry.channel = nullptr;
}

}  // namespace conn
