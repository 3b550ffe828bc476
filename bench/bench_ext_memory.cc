// Extension: registered-memory allocator + zero-copy GET (docs/memory.md).
//
// Table 1 — value sweep. One KV cluster (1 server thread, 4 client channels
// on 2 nodes, forced remote-fetch, 400 Gbps NIC profile) serves GETs from a
// pool-backed kv::BucketTable in two server modes:
//   * staged:   the handler copies the value into the response ring and the
//               copy is priced on the server CPU (kCopyNsPerByte per byte) —
//               the seed code's path, where every GET crosses the server
//               core once more than it has to;
//   * zerocopy: the handler returns a ZeroCopyRef straight into the store's
//               registered slab entry; the server publishes an indirect
//               descriptor and only the 1-byte status prefix is staged. The
//               client fetches descriptor + value (one extra READ).
// Both modes answer [status byte][value], so the client sees identical
// bytes. The speedup column divides zerocopy MOPS by the staged MOPS at the
// same value size.
//
// Table 2 — channel churn. One node pair, rounds of create/echo/destroy
// plus a forced QP failure + reconnect per round. Ring buffers come from the
// nodes' shared mem::Pools, so after the warm round the fabric registration
// census must stay flat: new_regs = 0, dereg = 0, steady registered
// footprint, and the pools' mr_reuses counters absorb all the churn.
//
// Expected shape (asserted by the Zero-copy rows of tests/claims/claims.py):
//   * zerocopy is >= 1.5x staged at 64 KiB (copy CPU dominates the server
//     budget long before serialization does at 400 Gbps);
//   * at tiny values zerocopy is the slower path — the descriptor costs an
//     extra round trip that no saved copy pays back (the paper's Fig. 1
//     trade-off, now visible inside one store);
//   * churn rounds after the first perform zero re-registrations.

#include "bench/common.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/kv/bucket_table.h"
#include "src/mem/pool.h"
#include "src/rdma/fabric.h"
#include "src/rdma/memory.h"
#include "src/rfp/channel.h"
#include "src/rfp/options.h"
#include "src/rfp/rpc.h"
#include "src/sim/engine.h"

namespace {

constexpr int kServerThreads = 1;  // single core: copy CPU is the contended resource
constexpr int kClientNodes = 2;
constexpr int kClients = 4;
constexpr int kKeys = 16;
constexpr sim::Time kProcessNs = 200;      // lookup cost, both modes
constexpr double kCopyNsPerByte = 0.08;    // staged mode: server memcpy, ~12.5 GB/s
constexpr double kBandwidthBytesPerNs = 45.0;  // 400 Gbps wire

const sim::Time kMeasureStart = sim::Millis(1);

std::vector<std::byte> KeyBytes(uint64_t idx) {
  std::vector<std::byte> key(8);
  std::memcpy(key.data(), &idx, sizeof(idx));
  return key;
}

// The key a GET asks for: the driver's call sequence number, mod kKeys.
std::vector<std::byte> RequestKey(std::span<const std::byte> req) {
  uint64_t idx = 0;
  std::memcpy(&idx, req.data(), sizeof(idx));
  return KeyBytes(idx % kKeys);
}

struct Outcome {
  double mops = 0;
  double gbps = 0;  // client-observed value goodput
  double reg_mib = 0;  // registered bytes across all nodes at end of run
  rfp::Channel::Stats stats;
  bench::Tally calls;  // latency runs from each call's submit
};

// Every GET answers [status][value], 1 + value_bytes long: the status byte
// is byte 0 of the reply to the request, so the driver sees each reply was
// its own, and every key holds bytes 1.. of the bare reply pattern
// (Load::stored_value).
Outcome RunSweepPoint(uint32_t value_bytes, bool zero_copy) {
  sim::Engine engine;
  rdma::FabricConfig fc;
  fc.nic.bandwidth_bytes_per_ns = kBandwidthBytesPerNs;
  rfp::ServerOptions server_options;
  if (!zero_copy) {
    // Staged responses ride in the slot rings, so both the channel and the
    // server dispatch cap must admit the full value.
    server_options.max_message_bytes = value_bytes + 128;
  }
  bench::EchoCluster cluster(engine, fc, kClientNodes, kServerThreads, server_options);

  // Pool-backed store, preloaded.
  kv::BucketTable table(64, cluster.server_node);
  {
    std::vector<std::byte> value(value_bytes);
    for (size_t b = 0; b < value.size(); ++b) {
      value[b] = bench::ReplyByte(1 + b);
    }
    for (uint64_t k = 0; k < kKeys; ++k) {
      table.Put(KeyBytes(k), value);
    }
  }

  if (zero_copy) {
    cluster.server.RegisterHandler(
        bench::kCallRpc, [&table](const rfp::HandlerContext&, std::span<const std::byte> req,
                                  std::span<std::byte> resp) -> rfp::HandlerResult {
          auto pinned = table.GetPinned(RequestKey(req));
          resp[0] = bench::ReplyByte(req, 0);
          if (!pinned.has_value()) {
            return {1, kProcessNs};
          }
          rfp::ZeroCopyRef ref;
          ref.rkey = pinned->rkey;
          ref.offset = pinned->offset;
          ref.len = pinned->len;
          ref.epoch = pinned->epoch;
          ref.pin = std::move(pinned->pin);
          return {1, kProcessNs, std::move(ref)};
        });
  } else {
    // Staged path: memcpy into the response ring, priced at kCopyNsPerByte
    // on the server CPU — the cost the zero-copy handler above avoids.
    cluster.server.RegisterHandler(
        bench::kCallRpc,
        [&table, value_bytes](const rfp::HandlerContext&, std::span<const std::byte> req,
                              std::span<std::byte> resp) -> rfp::HandlerResult {
          const auto value = table.Get(RequestKey(req));
          resp[0] = bench::ReplyByte(req, 0);
          if (!value.has_value() || value->size() != value_bytes) {
            return {1, kProcessNs};
          }
          rdma::CopyBytes(resp.subspan(1, value_bytes), *value);
          const sim::Time copy_ns =
              static_cast<sim::Time>(static_cast<double>(value_bytes) * kCopyNsPerByte);
          return {1 + static_cast<size_t>(value_bytes), kProcessNs + copy_ns};
        });
  }

  rfp::RfpOptions options;
  options.force_mode = rfp::RfpOptions::ForceMode::kForceFetch;
  if (!zero_copy) {
    // Staged responses travel through the slot rings, so the rings must be
    // sized for the full value. Zero-copy keeps the default small rings —
    // that difference is the reg_mib column.
    options.max_message_bytes = static_cast<size_t>(value_bytes) + 128;
  }
  cluster.Start(kClients, options);

  // Large values complete few ops per millisecond; stretch the run so the
  // percentile columns rest on a usable sample.
  bench::Load load;
  load.reply_bytes = 1 + value_bytes;
  load.measure_start = kMeasureStart;
  load.end = value_bytes >= (1u << 20) ? sim::Millis(30) : sim::Millis(5);
  load.count = bench::CountBy::kCompletion;
  load.stored_value = true;
  cluster.Run(load);

  const sim::Time measure = load.end - kMeasureStart;
  Outcome out;
  out.calls = cluster.Total();
  out.mops = out.calls.Mops(measure);
  out.gbps = static_cast<double>(out.calls.completed) * value_bytes * 8.0 /
             sim::ToSeconds(measure) / 1e9;
  size_t reg = cluster.fabric.RegisteredBytes(cluster.server_node);
  for (rdma::Node* n : cluster.client_nodes) {
    reg += cluster.fabric.RegisteredBytes(*n);
  }
  out.reg_mib = static_cast<double>(reg) / (1024.0 * 1024.0);
  out.stats = cluster.ChannelStats();
  return out;
}

// ---- Table 2: channel churn over pooled MRs --------------------------------

struct ChurnRow {
  uint64_t new_regs = 0;
  uint64_t dereg = 0;
  uint64_t reconnects = 0;
  uint64_t mr_reuses = 0;
  double reg_kib = 0;
};

class ChurnBench {
 public:
  ChurnBench() {
    rdma::FabricConfig fc;
    fc.seed = bench::SeedOr(fc.seed);
    fabric_ = std::make_unique<rdma::Fabric>(engine_, fc);
    client_ = &fabric_->AddNode("client");
    server_ = &fabric_->AddNode("server");
  }

  // One churn round: `channels` create/echo/destroy cycles, plus one forced
  // QP failure + reconnect on a persistent channel. Returns the round's
  // registration deltas.
  ChurnRow Round(int channels, bool fail_qps) {
    const uint64_t regs_before = TotalRegistrations();
    if (!persistent_) {
      rfp::RfpOptions options;
      options.max_reconnect_attempts = 4;
      persistent_ = std::make_unique<rfp::Channel>(*fabric_, *client_, *server_, options);
      Echo(*persistent_);
    }
    for (int i = 0; i < channels; ++i) {
      rfp::Channel channel(*fabric_, *client_, *server_, rfp::RfpOptions{});
      Echo(channel);
    }
    if (fail_qps) {
      fabric_->FailRcQps(client_->id(), server_->id());
      Echo(*persistent_);  // forces the reconnect path — QPs rebuilt, MRs reused
    }
    ChurnRow row;
    row.new_regs = TotalRegistrations() - regs_before;
    row.dereg = fabric_->DeregistrationCount(*client_) + fabric_->DeregistrationCount(*server_);
    row.reconnects = persistent_->stats().reconnects;
    row.reg_kib = static_cast<double>(fabric_->RegisteredBytes(*client_) +
                                      fabric_->RegisteredBytes(*server_)) /
                  1024.0;
    row.mr_reuses =
        mem::Pool::Shared(*client_)->mr_reuses() + mem::Pool::Shared(*server_)->mr_reuses();
    return row;
  }

 private:
  uint64_t TotalRegistrations() {
    return fabric_->RegistrationCount(*client_) + fabric_->RegistrationCount(*server_);
  }

  void Echo(rfp::Channel& channel) {
    engine_.Spawn([](sim::Engine& eng, rfp::Channel* ch) -> sim::Task<void> {
      std::vector<std::byte> buf(16384);
      size_t n = 0;
      while (!ch->TryServerRecv(buf, &n)) {
        co_await eng.Sleep(sim::Nanos(200));
      }
      co_await ch->ServerSend(std::span<const std::byte>(buf.data(), n));
    }(engine_, &channel));
    engine_.Spawn([](rfp::Channel* ch) -> sim::Task<void> {
      std::vector<std::byte> reply(16384);
      const std::string ping = "ping";
      co_await ch->ClientSend(std::as_bytes(std::span(ping.data(), ping.size())));
      co_await ch->ClientRecv(reply);
    }(&channel));
    engine_.Run();
  }

  sim::Engine engine_;
  std::unique_ptr<rdma::Fabric> fabric_;
  rdma::Node* client_ = nullptr;
  rdma::Node* server_ = nullptr;
  std::unique_ptr<rfp::Channel> persistent_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);

  const std::vector<uint32_t> values = {32, 1024, 16384, 65536, 1u << 20, 4u << 20};

  bench::PrintTitle(
      "Extension: zero-copy GET from registered slabs vs staged copy (400 Gbps, 1 server core)");
  bench::PrintHeader({"mode", "value", "mops", "gbps", "speedup", "p50_us", "p99_us", "reg_mib",
                      "zc_fetches", "fallbacks", "errors"});
  double speedup_64k = 0;
  for (uint32_t value : values) {
    double staged_mops = 0;
    for (const bool zero_copy : {false, true}) {
      const Outcome out = RunSweepPoint(value, zero_copy);
      if (!zero_copy) {
        staged_mops = out.mops;
      }
      const double speedup = staged_mops > 0 ? out.mops / staged_mops : 0;
      if (zero_copy && value == 65536) {
        speedup_64k = speedup;
      }
      bench::PrintRow({zero_copy ? "zerocopy" : "staged", bench::FmtInt(value),
                       bench::Fmt(out.mops, 3), bench::Fmt(out.gbps), bench::Fmt(speedup),
                       bench::Fmt(out.calls.PercentileUs(0.50), 1),
                       bench::Fmt(out.calls.PercentileUs(0.99), 1),
                       bench::Fmt(out.reg_mib), bench::FmtInt(out.stats.zero_copy_fetches),
                       bench::FmtInt(out.stats.zero_copy_fallbacks),
                       bench::FmtInt(out.calls.errors())});
    }
  }

  bench::PrintTitle("Channel churn over pooled MRs (create/echo/destroy + forced reconnect)");
  bench::PrintHeader(
      {"round", "channels", "reconnects", "new_regs", "dereg", "reg_kib", "mr_reuses"});
  ChurnBench churn;
  uint64_t steady_new_regs = 0;
  for (int round = 0; round < 5; ++round) {
    const ChurnRow row = churn.Round(/*channels=*/8, /*fail_qps=*/round > 0);
    if (round > 0) {
      steady_new_regs += row.new_regs;
    }
    bench::PrintRow({bench::FmtInt(static_cast<uint64_t>(round)), bench::FmtInt(8),
                     bench::FmtInt(row.reconnects), bench::FmtInt(row.new_regs),
                     bench::FmtInt(row.dereg), bench::Fmt(row.reg_kib, 1),
                     bench::FmtInt(row.mr_reuses)});
  }

  std::printf(
      "\nexpected: zerocopy >= 1.5x staged at 64 KiB (measured: %.2fx) — the\n"
      "server stops paying kCopyNsPerByte per GET; at 32 B the extra entry READ\n"
      "makes zerocopy the slower path (the paper's copy-vs-round-trip trade).\n"
      "Churn rounds after round 0 perform zero re-registrations (measured\n"
      "steady-state new_regs: %llu) — rings and bounce buffers recycle through\n"
      "the nodes' shared pools.\n",
      speedup_64k, static_cast<unsigned long long>(steady_new_regs));
  return 0;
}
