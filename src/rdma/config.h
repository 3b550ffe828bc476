// Calibration constants for the simulated RNIC and fabric.
//
// Defaults reproduce the performance envelope the paper measures on its
// Mellanox ConnectX-3 (MT27500, 40 Gbps) testbed (Section 2.2):
//
//   * out-bound one-sided IOPS saturate at ~2.11 MOPS once ~4 threads issue
//     concurrently (Fig 3) — modelled as a serialized per-NIC issue pipeline
//     whose service time is `outbound_issue_ns`;
//   * in-bound one-sided IOPS peak at ~11.26 MOPS for <=256 B payloads
//     (Figs 3 and 5) — modelled as a hardware serving engine with gap
//     `kInboundMinGapNs`, bandwidth-bound above ~256 B;
//   * in-bound and out-bound IOPS converge at >=2 KB payloads where the
//     ~40 Gbps link is the bottleneck (Fig 5) — `bandwidth_bytes_per_ns`;
//   * server in-bound IOPS decline once total client threads exceed ~35
//     (Fig 4), attributed to client mutex + QP/CQ contention — modelled as
//     poster-contention terms (`kOutboundFreeThreads` and the
//     `*_thread_factor` values below);
//   * two-sided SEND/RECV shows no in/out asymmetry (Section 2.2) —
//     symmetric two-sided costs.
//
// Absolute values are inputs; every experiment's *shape* is an emergent
// output of executing the real protocols on this substrate.

#ifndef SRC_RDMA_CONFIG_H_
#define SRC_RDMA_CONFIG_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/sim/time.h"

namespace rdma {

// ---- Fixed calibration -----------------------------------------------------
// Nothing sets these at run time. To recalibrate the model for another RNIC,
// edit them here (docs/calibration.md); the static_asserts at the end of this
// block keep them in range.

// Out-bound (requester) path.
//
// READ holds more requester state than WRITE (observed by HERD and
// RDMA-PVFS; paper Section 4.4.2): extra per-READ bookkeeping on the
// requester, so a single WRITE has lower latency than a single READ
// without changing the saturated pipeline rate.
inline constexpr double kReadStateCpuNs = 60.0;
// CPU time the posting thread spends building and posting a WR, and
// reaping its completion.
inline constexpr double kPostCpuNs = 200.0;
inline constexpr double kCompletionCpuNs = 150.0;
// Per-node software posting lock (the client-side mutex the paper blames
// for part of the contention in Fig 4).
inline constexpr double kPostLockNs = 20.0;
// Issue-pipeline inflation once more threads post concurrently on this
// node than `kOutboundFreeThreads` — the client-side "software (mutex)
// and hardware (QP/CQ) contention" of Section 2.2. READ issue inflates
// strongly (a requester holds per-READ state), which is what makes the
// aggregate client out-bound stop scaling and drags the server's in-bound
// IOPS down past ~50 client threads (Fig 4). WRITE/SEND issue inflates
// only mildly (NicConfig::outbound_write_thread_factor).
inline constexpr int kOutboundFreeThreads = 6;
inline constexpr double kOutboundReadThreadFactor = 0.10;
// Doorbell batching (docs/pipelining.md): when several WRs are posted in
// one sweep, only the first op rings the doorbell and pays the full
// `outbound_issue_ns`; each follower in the batch is fetched by the NIC's
// WQE prefetcher and pays this marginal issue cost instead (still floored
// by wire serialization). Batching only thins the *out-bound* pipeline;
// the in-bound engine serves each op individually, so the paper's in/out
// asymmetry is preserved. ~120 ns keeps a follower cheaper than a doorbell
// but dearer than the in-bound gap.
inline constexpr double kOutboundBatchMarginalNs = 120.0;

// In-bound (responder) path: minimum gap between in-bound one-sided ops
// served purely in hardware. 89 ns => 11.24 MOPS peak.
inline constexpr double kInboundMinGapNs = 89.0;

// Two-sided SEND/RECV: symmetric costs — requester pipeline and responder
// engine pay the same base service (no asymmetry, per the paper's
// observation).
inline constexpr double kTwoSidedTxNs = 474.0;
inline constexpr double kTwoSidedRxNs = 474.0;

// Uniform +/- fraction applied to each op's service time at the issue
// pipeline and the in-bound engine. Mean rates are unchanged; the jitter
// produces realistic latency spread (and the paper's occasional fetch
// retries, Table 3).
inline constexpr double kServiceJitter = 0.08;

// One-way propagation + switch latency between any two nodes (single
// InfiniScale-IV switch hop).
inline constexpr sim::Time kWireLatencyNs = 150;

// Registered-memory pool geometry (docs/memory.md): the per-node mem::Pool
// that backs channel slot rings, rfp buffers, and store value slabs
// (chubaofs-style buddy pool: block size x pool level fixes the arena, slab
// classes front the small sizes).
//
// Buddy leaf block: the smallest unit the buddy allocator hands out and the
// slab unit carved into sub-block chunks.
inline constexpr size_t kMemBlockBytes = 4096;
// Buddy orders per arena: one arena registers
// kMemBlockBytes << (kMemPoolLevel - 1) bytes (4 KiB x 13 => 16 MiB) and is
// never deregistered until the pool dies, so churn reuses MRs.
inline constexpr int kMemPoolLevel = 13;
inline constexpr size_t kMemArenaBytes = kMemBlockBytes << (kMemPoolLevel - 1);
// Power-of-two slab classes below the leaf block (block/2, block/4, ...,
// block >> kMemSlabClasses).
inline constexpr int kMemSlabClasses = 6;
// Fully-free slabs cached per slab size class before surplus frees fall
// through to buddy coalescing.
inline constexpr int kMemSlabMagazine = 64;

static_assert(kReadStateCpuNs >= 0 && kPostCpuNs >= 0 && kCompletionCpuNs >= 0 &&
              kPostLockNs >= 0 && kOutboundBatchMarginalNs >= 0 && kInboundMinGapNs >= 0 &&
              kTwoSidedTxNs >= 0 && kTwoSidedRxNs >= 0);
static_assert(kOutboundFreeThreads >= 0 && kOutboundReadThreadFactor >= 0);
static_assert(kServiceJitter >= 0 && kServiceJitter <= 1, "jitter must keep service times >= 0");
static_assert(kWireLatencyNs >= 0);
static_assert(std::has_single_bit(kMemBlockBytes) && kMemBlockBytes >= 64,
              "the buddy leaf block must be a power of two >= 64");
static_assert(kMemPoolLevel >= 1 && kMemPoolLevel <= 32);
static_assert(std::countl_zero(kMemBlockBytes) >= kMemPoolLevel - 1,
              "kMemBlockBytes << (kMemPoolLevel - 1) must not overflow size_t");
static_assert(kMemSlabClasses >= 0 && (kMemBlockBytes >> kMemSlabClasses) >= 32,
              "the smallest slab class must stay >= 32 bytes");
static_assert(kMemSlabMagazine >= 0);

// ---- Settable calibration ----------------------------------------------------

struct NicConfig {
  // Out-bound (requester) path: service time of the serialized issue
  // pipeline per one-sided op — the software/hardware interaction (doorbell,
  // DMA of the WQE, completion generation) that the Mellanox engineers
  // identify as the out-bound cost. 474 ns => 2.11 MOPS saturated.
  // bench_ablation_asymmetry_off sets it to kInboundMinGapNs.
  double outbound_issue_ns = 474.0;
  // WRITE/SEND issue inflation per poster beyond kOutboundFreeThreads (the
  // gentle ServerReply decline beyond 6 threads in Fig 12, while Fig 3's
  // out-bound WRITE curve stays near-flat). The asymmetry ablation zeroes it.
  double outbound_write_thread_factor = 0.02;

  // Link: effective data bandwidth (40 Gbps signalling ~= 4.5 payload
  // bytes/ns after headers). Serialization time = bytes / bandwidth at both
  // the sender pipeline and the receiver engine.
  double bandwidth_bytes_per_ns = 4.5;

  // Number of cores on the machine (dual 8-core Xeon E5-2640 v2).
  int cores = 16;

  // Cores reserved next to the NIC for its stations (driver/IRQ work of the
  // issue pipeline and completion handling). Dispatch workers that pin cores
  // via Node::ReserveWorkerCore are affinitized to the remaining
  // [nic_station_cores, cores) so they never time-share with the NIC's
  // driver cores (docs/multicore.md). 0 (the default) reserves nothing and
  // leaves every core available for compute — behavior-neutral. Must be
  // < cores.
  int nic_station_cores = 0;

  // Deployment limit: hard cap on bytes the node's mem::Pool may register
  // (0 = unbounded). An allocation that would push past the cap throws
  // mem::ExhaustedError instead of registering more memory. A nonzero cap
  // must hold at least one arena (kMemArenaBytes).
  size_t mem_max_registered_bytes = 0;
};

struct FabricConfig {
  NicConfig nic;
  // Packet loss probability applied to unreliable transports (UC/UD) only.
  double unreliable_loss_prob = 0.0;
  // Seed for fabric-level randomness (loss draws).
  uint64_t seed = 0x52465031;  // "RFP1"
};

// Throw std::invalid_argument when a calibration value is outside its valid
// range (negative service times, probabilities outside [0,1], zero cores or
// bandwidth, ...). Called by the Nic and Fabric constructors, so a bad
// config fails loudly at construction instead of silently corrupting the
// timing model. Defined in nic.cc / fabric.cc.
void ValidateConfig(const NicConfig& config);
void ValidateConfig(const FabricConfig& config);

}  // namespace rdma

#endif  // SRC_RDMA_CONFIG_H_
