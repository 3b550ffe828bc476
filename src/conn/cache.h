// LRU channel cache (docs/connections.md).
//
// Dedicated rfp::Channels give the best per-call latency but cost two RC QPs
// and two ring spans each, so a client fleet cannot hold one per (server,
// thread) forever. The cache bounds that footprint: leases hand out cached
// channels MRU-first, and when max_channels is exceeded the
// least-recently-used idle channel is destroyed — its rings
// return to the node pools and its QPs retire, so the *next* lease for that
// key re-establishes through pool-backed AcceptChannel with zero MR
// registrations (the churn contract, tests/mem/churn_test.cc).
//
// Eviction under load reuses the PR-2 reconnect machinery: when every cached
// channel is pinned by a live lease, the LRU victim is detached
// (Channel::Detach — both QPs error out, exactly like a fault-injected
// connection loss) and destruction is deferred until its last lease drops.
// In-flight calls on the victim observe a reconnect and re-issue
// idempotently; nothing above the lease notices.
//
// The cache key is (server, client node, server thread). Channel options are
// not part of the key: callers of one cache must use consistent RfpOptions
// per key, which Connector guarantees.

#ifndef SRC_CONN_CACHE_H_
#define SRC_CONN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "src/rdma/node.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"

namespace conn {

class ChannelCache;

struct CacheOptions {
  int max_channels = 64;  // cached channels; 0 = unbounded
};

// Move-only RAII handle on a channel + RpcClient stub. Cached leases pin
// their cache entry (a pinned entry cannot be destroyed, only detached);
// direct leases own their stub and leave the server-owned channel alone on
// release. Must not outlive the ChannelCache / Connector that produced it.
class ChannelLease {
 public:
  ChannelLease() = default;
  ChannelLease(ChannelLease&& other) noexcept;
  ChannelLease& operator=(ChannelLease&& other) noexcept;
  ~ChannelLease() { Release(); }

  ChannelLease(const ChannelLease&) = delete;
  ChannelLease& operator=(const ChannelLease&) = delete;

  bool valid() const { return channel_ != nullptr; }
  rfp::Channel* channel() const { return channel_; }
  rfp::RpcClient* stub() const { return stub_; }

  // Drops the pin (cached) or the owned stub (direct). Idempotent.
  void Release();

 private:
  friend class ChannelCache;
  friend class Connector;

  rfp::Channel* channel_ = nullptr;
  rfp::RpcClient* stub_ = nullptr;
  std::unique_ptr<rfp::RpcClient> owned_stub_;  // direct (uncached) mode only
  ChannelCache* cache_ = nullptr;
  void* entry_ = nullptr;  // ChannelCache::Entry, opaque to the lease
};

class ChannelCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;             // each miss is one AcceptChannel
    uint64_t evictions = 0;          // idle + detach evictions
    uint64_t detach_evictions = 0;   // victims evicted while pinned (Detach)
  };

  explicit ChannelCache(CacheOptions options = {});

  // Destroys every cached channel (all leases must already be released) and
  // flushes conn.cache.* counters into the default metrics registry.
  ~ChannelCache();

  ChannelCache(const ChannelCache&) = delete;
  ChannelCache& operator=(const ChannelCache&) = delete;

  // Returns a pinned lease on the cached channel for (server, client,
  // thread), establishing one on miss. Establishing may first evict the LRU
  // idle channel (or detach the LRU pinned one) to stay within capacity.
  ChannelLease Get(rfp::RpcServer& server, rdma::Node& client,
                   const rfp::RfpOptions& options, int thread);

  // Forces the entry for (server, client, thread) out of the cache: idle
  // entries are destroyed immediately, pinned entries are detached and
  // destroyed when their last lease releases. Returns false when the key is
  // not cached. Test hook for eviction-under-load composition.
  bool Evict(rfp::RpcServer& server, rdma::Node& client, int thread);

  size_t size() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }
  const CacheOptions& options() const { return options_; }

 private:
  friend class ChannelLease;

  struct Key {
    rfp::RpcServer* server = nullptr;
    rdma::Node* client = nullptr;
    int thread = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    Key key;
    rfp::Channel* channel = nullptr;
    std::unique_ptr<rfp::RpcClient> stub;
    int pins = 0;
    bool doomed = false;  // detached; destroy when pins drops to 0
  };

  ChannelLease MakeLease(Entry& entry);
  void Release(void* opaque_entry);
  // Evicts until max_channels admits one more entry: LRU idle victims are
  // destroyed, and when everything is pinned the LRU victim is detached
  // instead.
  void TrimToCapacity();
  void EvictIdle(std::list<Entry>::iterator it);
  void Doom(std::list<Entry>::iterator it);
  void DestroyEntry(Entry& entry);

  CacheOptions options_;
  std::list<Entry> entries_;  // MRU at front; node addresses are stable
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::list<Entry> doomed_;   // detached, waiting for their last Release
  Stats stats_;
};

}  // namespace conn

#endif  // SRC_CONN_CACHE_H_
