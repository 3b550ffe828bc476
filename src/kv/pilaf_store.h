// Pilaf-style server-bypass key-value store (Mitchell et al., ATC'13), the
// paper's server-bypass comparison point (Sections 2.3 and 4.3).
//
// GETs bypass the server CPU entirely: the client READs candidate Cuckoo
// slots one-sidedly, follows the winning slot's pointer with a second READ
// into the extent log, and validates CRC64 — retrying the whole lookup when
// a concurrent server-side PUT tore the entry. PUTs go through RPC in
// server-reply mode, and the server deliberately updates the extent before
// publishing the slot, holding the torn window open for a fraction of the
// PUT's process time (exactly the race Pilaf's CRCs exist to catch).

#ifndef SRC_KV_PILAF_STORE_H_
#define SRC_KV_PILAF_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/kv/cuckoo.h"
#include "src/rdma/fabric.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/resource.h"
#include "src/sim/stats.h"

namespace kv {

// Server threads: PUT service only; GETs never hit the CPU.
inline constexpr int kPilafServerThreads = 2;
// Server-side PUT cost: cuckoo maintenance plus a CRC64 pass over the record
// (Pilaf computes checksums on every update).
inline constexpr sim::Time kPilafPutProcessNs = 1500;

struct PilafConfig {
  uint64_t num_slots = 1 << 20;       // sized so benches stay <= ~75% full
  size_t extent_bytes = 256u << 20;   // bump-allocated record log
};

class PilafServer {
 public:
  PilafServer(rdma::Fabric& fabric, rdma::Node& node, PilafConfig config = {});

  PilafServer(const PilafServer&) = delete;
  PilafServer& operator=(const PilafServer&) = delete;

  const PilafConfig& config() const { return config_; }
  CuckooTable& table() { return table_; }
  CuckooTable::View view() const { return table_.view(); }
  rfp::RpcServer& rpc() { return rpc_; }
  rdma::Node& node() { return rpc_.node(); }

  void Start() { rpc_.Start(); }
  void Stop() { rpc_.Stop(); }

  // Loads a key-value pair without simulated time passing (test/bench
  // pre-fill). Returns false when the table is full.
  bool Preload(std::span<const std::byte> key, std::span<const std::byte> value) {
    return table_.Put(key, value);
  }

 private:
  void RegisterHandlers();

  PilafConfig config_;
  rfp::RpcServer rpc_;
  CuckooTable table_;
  sim::Mutex put_lock_;  // Cuckoo mutation is serialized on the server
};

class PilafClient {
 public:
  struct Stats {
    uint64_t gets = 0;
    uint64_t puts = 0;
    uint64_t slot_reads = 0;    // one-sided READs of metadata slots
    uint64_t extent_reads = 0;  // one-sided READs of extent records
    uint64_t crc_failures = 0;  // torn entries detected and retried
    uint64_t hash_misses = 0;   // probed slots that did not hold the key
    uint64_t retries = 0;       // whole-lookup retries
    uint64_t not_found = 0;

    double ReadsPerGet() const {
      return gets == 0 ? 0.0
                       : static_cast<double>(slot_reads + extent_reads) / static_cast<double>(gets);
    }
  };

  // `put_thread` selects which server thread serves this client's PUTs.
  PilafClient(rdma::Fabric& fabric, rdma::Node& client_node, PilafServer& server,
              int put_thread);

  // Flushes Stats and the GET latency histogram into the default metrics
  // registry ({store: "pilaf", client}).
  ~PilafClient();

  // One-sided GET. Returns the value size, or nullopt when absent.
  sim::Task<std::optional<size_t>> Get(std::span<const std::byte> key,
                                       std::span<std::byte> value_out);

  // RPC PUT (server-reply, as in Pilaf).
  sim::Task<bool> Put(std::span<const std::byte> key, std::span<const std::byte> value);

  const Stats& stats() const { return stats_; }
  const sim::Histogram& get_latency() const { return get_latency_; }

 private:
  std::span<std::byte> read_buf() const { return read_span_.bytes(); }

  PilafServer& server_;
  CuckooTable::View view_;
  rdma::QueuePair* qp_;  // client endpoint for one-sided READs
  std::shared_ptr<mem::Pool> pool_;
  mem::Span read_span_;  // pooled landing area for slot + extent READs
  std::unique_ptr<rfp::RpcClient> put_stub_;
  std::vector<std::byte> scratch_;
  Stats stats_;
  sim::Histogram get_latency_;
};

}  // namespace kv

#endif  // SRC_KV_PILAF_STORE_H_
