// Jakiro: the RFP-based in-memory key-value store (paper Section 4.1).
//
// Server: one BucketTable partition per server thread (EREW — no sharing,
// no locks), GET/PUT/DELETE exported as RPC handlers over RFP channels.
// Client: one channel per server thread; requests route to the partition
// that owns the key (hash % threads), so a server thread only ever touches
// its own data.
//
// The ServerReply baseline of the paper ("extended from Jakiro, differs in
// that the server thread directly sends the result back") is this same
// store with the channels forced into server-reply mode — see
// ConfigBuilder::ServerReply(). "Jakiro w/o switch" (Fig 14) forces
// remote-fetch (ConfigBuilder::NoSwitch()).

#ifndef SRC_KV_JAKIRO_H_
#define SRC_KV_JAKIRO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/conn/connector.h"
#include "src/kv/bucket_table.h"
#include "src/rdma/fabric.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/stats.h"

namespace explore {
class HistoryRecorder;
}

namespace kv {

class ConfigBuilder;

struct JakiroConfig {
  int server_threads = 6;
  size_t buckets_per_partition = 1 << 15;  // x8 slots each
  // CPU cost of one hash-table operation (lookup / insert+LRU update).
  sim::Time get_process_ns = 150;
  sim::Time put_process_ns = 250;
  // Zero-copy GET (docs/memory.md): partitions store values in registered
  // slabs from the node's shared mem::Pool, and the GET handler answers with
  // an indirect descriptor — the client READs the value straight out of the
  // store-owned entry, so it never crosses the server's CPU. PUTs that race
  // a pinned entry copy-on-write (BucketTable::Stats::cow_puts).
  bool zero_copy_get = false;
  rfp::RfpOptions channel_options;
  rfp::ServerOptions server_options;

  // The one entry point for configuring Jakiro variants — presets compose
  // instead of nesting free-function calls:
  //
  //   kv::JakiroConfig cfg =
  //       kv::JakiroConfig::Build().FaultTolerant().Pipelined(8).ZeroCopy();
  //
  // Mutually exclusive presets (ServerReply vs NoSwitch force opposite
  // transport paradigms) are rejected with std::invalid_argument at build
  // time rather than silently last-writer-wins.
  static ConfigBuilder Build();
  static ConfigBuilder Build(JakiroConfig base);
};

// Chainable preset builder, obtained from JakiroConfig::Build(). Each preset
// mutates the config in place and returns the builder; the result converts
// implicitly to JakiroConfig (or call Done() to be explicit).
class ConfigBuilder {
 public:
  explicit ConfigBuilder(JakiroConfig base = {}) : config_(std::move(base)) {}

  // The paper's ServerReply system: identical store, reply-only transport.
  ConfigBuilder& ServerReply();
  // "Jakiro w/o switch": remote fetching with the hybrid fallback disabled.
  ConfigBuilder& NoSwitch();
  // Channel recovery machinery: fetch deadline with bounded backoff,
  // response checksums with reissue-on-corrupt, transparent RC reconnection.
  // Throughput-neutral on a healthy fabric (docs/fault_injection.md).
  ConfigBuilder& FaultTolerant();
  // Server-side admission control with deadline shedding plus the client
  // circuit breaker and a per-call deadline (docs/overload.md).
  ConfigBuilder& OverloadProtected();
  // Multi-slot channels with doorbell-batched posting (docs/pipelining.md).
  ConfigBuilder& Pipelined(int window = 8);
  // Pool-backed partitions plus indirect GET responses (docs/memory.md).
  ConfigBuilder& ZeroCopy();

  JakiroConfig Done() const { return config_; }
  // Implicit by design: Build() chains read as the config they produce.
  operator JakiroConfig() const { return config_; }  // NOLINT

 private:
  // Rejects ServerReply + NoSwitch composition (conflicting force modes).
  void ForceParadigm(rfp::RfpOptions::ForceMode mode, const char* preset);

  JakiroConfig config_;
  bool paradigm_forced_ = false;
};

inline ConfigBuilder JakiroConfig::Build() { return ConfigBuilder(JakiroConfig{}); }

inline ConfigBuilder JakiroConfig::Build(JakiroConfig base) {
  return ConfigBuilder(std::move(base));
}

class JakiroServer {
 public:
  JakiroServer(rdma::Fabric& fabric, rdma::Node& node, JakiroConfig config = {});

  // Flushes aggregated partition-table stats into the default metrics
  // registry, labeled {store: "jakiro", node}.
  ~JakiroServer();

  JakiroServer(const JakiroServer&) = delete;
  JakiroServer& operator=(const JakiroServer&) = delete;

  const JakiroConfig& config() const { return config_; }
  rfp::RpcServer& rpc() { return rpc_; }
  rdma::Node& node() { return rpc_.node(); }
  int num_threads() const { return rpc_.num_threads(); }
  BucketTable& partition(int thread) { return *partitions_[static_cast<size_t>(thread)]; }

  // Which server thread owns `key` (clients route with the same function).
  int OwnerThread(std::span<const std::byte> key) const;

  void Start() { rpc_.Start(); }
  void Stop() { rpc_.Stop(); }

  // Replication hook (docs/replication.md): when set, every PUT/DELETE
  // handler co_awaits it after the mutation applied to the local partition
  // and before the reply publishes — the suspension point where a
  // synchronous replicator ships the op and waits for the backup's ack.
  // `rpc_id` is kRpcPut or kRpcDelete; `value` is empty for deletes. The
  // spans point into the dispatch buffer and are valid only until the hook
  // returns. A throwing hook fails the request (the client sees no reply
  // and recovers via its own machinery), so an acked PUT is always a
  // replicated PUT in sync mode.
  using ReplHook = std::function<sim::Task<void>(int thread, uint16_t rpc_id,
                                                 std::span<const std::byte> key,
                                                 std::span<const std::byte> value)>;
  void set_repl_hook(ReplHook hook) { repl_hook_ = std::move(hook); }

 private:
  void RegisterHandlers();

  JakiroConfig config_;
  rfp::RpcServer rpc_;
  std::vector<std::unique_ptr<BucketTable>> partitions_;
  ReplHook repl_hook_;
};

class JakiroClient {
 public:
  // Opens one channel per server thread from `client_node` through the
  // process-wide direct connector (dedicated server-owned channels — the
  // legacy bringup).
  JakiroClient(JakiroServer& server, rdma::Node& client_node);

  // Same, but resolving every endpoint through `connector` — a cached
  // connector gives this client LRU-managed channels that survive eviction
  // via transparent re-establish (docs/connections.md). The connector must
  // outlive the client.
  JakiroClient(JakiroServer& server, rdma::Node& client_node, conn::Connector& connector);

  // GET: returns the value size, or nullopt when the key is absent.
  sim::Task<std::optional<size_t>> Get(std::span<const std::byte> key,
                                       std::span<std::byte> value_out);

  sim::Task<bool> Put(std::span<const std::byte> key, std::span<const std::byte> value);

  sim::Task<bool> Delete(std::span<const std::byte> key);

  // Batched GET (extension): groups the keys by owning server thread, issues
  // one RPC per owner, and fills `values_out[i]` with the i-th key's value
  // size (nullopt = miss). Amortizes the per-call round trip; note that the
  // batched response grows with the batch, interacting with the fetch-size
  // parameter exactly as Eq. 2 predicts.
  sim::Task<void> MultiGet(std::span<const std::span<const std::byte>> keys,
                           std::span<std::byte> value_arena,
                           std::span<std::optional<std::span<const std::byte>>> values_out);

  uint64_t operations() const { return operations_; }

  // Attaches (or detaches, with nullptr) a history recorder: every Get/Put/
  // Delete/MultiGet records its invocation and response so the explorer's
  // linearizability oracle can judge the run (src/explore/history.h). Calls
  // that never complete — deadline, crash, strict-mode throw — stay pending
  // in the history, which is exactly what the oracle expects. The recorder
  // must outlive this client or be detached first.
  void set_history_recorder(explore::HistoryRecorder* recorder) { recorder_ = recorder; }

  // Merged latency distribution across the per-thread stubs.
  sim::Histogram MergedLatency() const;

  // Aggregated channel statistics (retries, round trips, mode switches).
  rfp::Channel::Stats MergedChannelStats() const;

  // Aggregate client CPU busy time across this client's channels.
  sim::Time TotalBusy() const;

  rfp::Channel* channel(int thread) { return endpoints_[static_cast<size_t>(thread)].channel(); }
  int num_channels() const { return static_cast<int>(endpoints_.size()); }

 private:
  // The server thread that owns `key` (BucketTable::Prefetch-ing its bucket).
  int Route(std::span<const std::byte> key) const;
  // Size of the MultiGet request for keys[idxs]. Throws std::length_error
  // when it would not fit scratch_, a key does not fit its u16 size field,
  // or there are more than 65535 keys.
  size_t MultiGetRequestBytes(std::span<const std::span<const std::byte>> keys,
                              std::span<const size_t> idxs) const;
  // Encodes the MultiGet request for keys[idxs], which MultiGetRequestBytes
  // has accepted, into scratch_ and returns its size; with a recorder
  // attached, books each GET's invocation in `hids`.
  size_t EncodeMultiGet(std::span<const std::span<const std::byte>> keys,
                        std::span<const size_t> idxs, std::vector<uint64_t>& hids);
  // Decodes the MultiGet response `resp` for keys[idxs] back into caller
  // order, copying each value into value_arena from `arena_used` on.
  void DecodeMultiGet(std::span<const std::byte> resp, std::span<const size_t> idxs,
                      std::span<const uint64_t> hids, std::span<std::byte> value_arena,
                      size_t& arena_used,
                      std::span<std::optional<std::span<const std::byte>>> values_out);

  JakiroServer& server_;
  // One leased channel + stub per server thread, from the constructor's
  // Connector (lease release, not this client, decides channel lifetime).
  std::vector<conn::ChannelLease> endpoints_;
  std::vector<std::byte> scratch_;
  uint64_t operations_ = 0;
  explore::HistoryRecorder* recorder_ = nullptr;
};

}  // namespace kv

#endif  // SRC_KV_JAKIRO_H_
