// RDMA-Memcached-style baseline (Jose et al., ICPP'11), the paper's second
// server-reply comparison point (Section 4.2).
//
// Unlike Jakiro's EREW partitions, all server threads share one hash table
// and one global LRU list, coordinated by a coarse cache lock — so the
// system is CPU/coordination-bound rather than NIC-bound (paper Fig 12),
// degrades under write-intensive load (Fig 16), and *benefits* from skew
// because hot entries stay cache-resident (Fig 19). Results return via
// server-reply, capping it at the out-bound rate even when CPU would allow
// more.

#ifndef SRC_KV_MEMCACHED_STORE_H_
#define SRC_KV_MEMCACHED_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mem/pool.h"
#include "src/rdma/fabric.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/resource.h"

namespace kv {

// Per-op CPU outside the lock: full memcached item path (hashing, slab
// accounting, protocol handling). PUTs also take the slab allocator path.
inline constexpr sim::Time kMemcachedGetCpuNs = 8200;
inline constexpr sim::Time kMemcachedPutCpuNs = 14000;
// Critical section under the global cache lock: a GET is hash + LRU splice;
// a PUT additionally runs slab allocation and eviction accounting, so its
// lock hold is several times longer.
inline constexpr sim::Time kMemcachedGetLockNs = 650;
inline constexpr sim::Time kMemcachedPutLockNs = 2500;
// CPU-cache locality emulation: ops on one of the `kMemcachedHotSetSize`
// most recently touched keys cost cpu * kMemcachedHotDiscount (drives the
// skewed-load advantage in Fig 19).
inline constexpr double kMemcachedHotDiscount = 0.35;
inline constexpr size_t kMemcachedHotSetSize = 4096;

struct MemcachedConfig {
  int server_threads = 16;
  // Deployment limit: item capacity before global-LRU eviction.
  size_t capacity_items = 4u << 20;
  rfp::RfpOptions channel_options;  // forced to server-reply in the ctor
};

class MemcachedServer {
 public:
  struct Stats {
    uint64_t gets = 0;
    uint64_t puts = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t hot_hits = 0;
  };

  MemcachedServer(rdma::Fabric& fabric, rdma::Node& node, MemcachedConfig config = {});

  // Flushes Stats into the default metrics registry ({store: "memcached"}).
  ~MemcachedServer();

  MemcachedServer(const MemcachedServer&) = delete;
  MemcachedServer& operator=(const MemcachedServer&) = delete;

  const MemcachedConfig& config() const { return config_; }
  rfp::RpcServer& rpc() { return rpc_; }
  rdma::Node& node() { return rpc_.node(); }
  const Stats& stats() const { return stats_; }
  size_t size() const { return items_.size(); }

  void Start() { rpc_.Start(); }
  void Stop() { rpc_.Stop(); }

  // Instant pre-fill (no simulated time). Throws mem::ExhaustedError when
  // the node's registration budget cannot hold the value.
  void Preload(std::span<const std::byte> key, std::span<const std::byte> value);

 private:
  // Values live in registered slabs from the node's shared pool (the
  // memcached slab allocator maps onto mem::Pool's size classes). The GET
  // path still stages a copy through the response ring — server-reply has
  // no zero-copy fast path; pooling here is about slab reuse, not bypass.
  struct Item {
    std::string key;
    mem::Span span;
    uint32_t len = 0;
    std::span<const std::byte> value() const {
      return span.mr->bytes().subspan(span.offset, len);
    }
  };
  using LruList = std::list<Item>;

  void RegisterHandlers();
  // Hash + LRU touch under the lock; returns the item or nullptr.
  Item* LookupAndTouch(const std::string& key);
  // Returns false when the node's registration budget cannot hold the
  // value; the key is then absent (an outgrown item is dropped).
  bool Store(const std::string& key, std::span<const std::byte> value);
  // CPU-cache locality model: true (and refreshed) when `key_hash` was
  // touched recently.
  bool TouchHotSet(uint64_t key_hash);

  MemcachedConfig config_;
  rfp::RpcServer rpc_;
  std::shared_ptr<mem::Pool> pool_;
  sim::Mutex cache_lock_;
  LruList lru_;  // front = most recent
  std::unordered_map<std::string, LruList::iterator> items_;
  std::list<uint64_t> hot_list_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> hot_index_;
  Stats stats_;
};

// Client stub: plain RPC calls over a server-reply channel.
class MemcachedClient {
 public:
  MemcachedClient(MemcachedServer& server, rdma::Node& client_node, int thread);

  sim::Task<std::optional<size_t>> Get(std::span<const std::byte> key,
                                       std::span<std::byte> value_out);
  sim::Task<bool> Put(std::span<const std::byte> key, std::span<const std::byte> value);

  uint64_t operations() const { return operations_; }
  const sim::Histogram& latency() const { return stub_->latency(); }
  rfp::Channel* channel() { return channel_; }

 private:
  rfp::Channel* channel_ = nullptr;
  std::unique_ptr<rfp::RpcClient> stub_;
  std::vector<std::byte> scratch_;
  uint64_t operations_ = 0;
};

}  // namespace kv

#endif  // SRC_KV_MEMCACHED_STORE_H_
