// Registered-memory allocator (docs/memory.md).
//
// A per-node buddy allocator over large registered arenas with slab
// front-ends for sub-block sizes — the chubaofs rdma buddy-pool shape
// (block size x pool level fixes the arena; per-size-class magazines give
// O(1) reuse on the fast path). Arenas are registered once and never
// deregistered while the pool lives, so channel setup/teardown, reconnects
// (Fabric::RetireQp), and store churn recycle MRs instead of re-registering:
// registration is the control-plane cost RFP-style data planes must keep off
// the hot path.
//
// The pool never refuses: a miss registers another arena, so the only
// failure Alloc can raise is std::bad_alloc from the host mapping itself.
//
// Consumers: rfp::Channel slot rings and bounce spans, and the KV stores'
// value slabs (which is what makes zero-copy GET possible — a reply
// header can point into a store-owned registered entry because that entry
// already lives under an rkey the client can READ).

#ifndef SRC_MEM_POOL_H_
#define SRC_MEM_POOL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/rdma/config.h"
#include "src/rdma/memory.h"
#include "src/rdma/node.h"

namespace mem {

// Geometry of every node's pool: rdma::kMemBlockBytes leaf blocks,
// rdma::kMemPoolLevel buddy orders per arena (rdma::kMemArenaBytes),
// rdma::kMemSlabClasses slab classes and rdma::kMemSlabMagazine cached free
// slabs per class (src/rdma/config.h checks them). Nothing about the pool is
// settable.
//
// Access flags for every arena. Remote read+write: response rings are
// fetched by clients, request rings written by them, and zero-copy GET
// entries must be remotely readable.
inline constexpr uint32_t kArenaAccess = rdma::kAccessRemoteRead | rdma::kAccessRemoteWrite;

// One allocation: a range inside a registered region. The MR outlives the
// span (arenas live as long as the pool), so holding a Span never dangles;
// freeing it returns the range for reuse without deregistering.
struct Span {
  rdma::MemoryRegion* mr = nullptr;
  size_t offset = 0;
  size_t size = 0;  // bytes requested (the reserved extent may be larger)

  bool valid() const { return mr != nullptr; }
  uint32_t rkey() const { return mr->remote_key().rkey; }
  std::span<std::byte> bytes() const { return mr->bytes().subspan(offset, size); }

  // Makes every byte read zero, like a fresh registration. Arenas are
  // demand-zero mappings, so only kMemBlockBytes blocks that hold a nonzero
  // byte are written: blocks nothing wrote stay unbacked host memory.
  void Zero() const;
};

class Pool {
 public:
  explicit Pool(rdma::Node& node);
  ~Pool();  // flushes obs metrics; arenas stay registered (the node owns them)

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // O(1) on the fast path: slab-magazine hit for sub-block sizes, free-set
  // hit for buddy sizes, cached region for huge sizes. Falls back to buddy
  // split / arena registration on miss. size 0 is allowed (smallest class).
  Span Alloc(size_t size);

  // O(1) fast path; buddy coalescing when a magazine overflows. Freeing an
  // invalid (default) span is a no-op; freeing a span the pool does not own
  // throws.
  void Free(const Span& span);

  // ---- Introspection (tests, bench, obs) ----------------------------------

  size_t registered_bytes() const { return registered_bytes_; }
  size_t in_use_bytes() const { return in_use_bytes_; }
  size_t arena_count() const { return arenas_.size() + huge_count_; }
  uint64_t allocs() const { return allocs_; }
  uint64_t frees() const { return frees_; }
  // Allocations served entirely from already-registered memory.
  uint64_t mr_reuses() const { return mr_reuses_; }
  // MR registrations this pool performed (arenas + huge regions).
  uint64_t registrations() const { return registrations_; }

  // Per-arena utilization snapshot: occupancy = allocated fraction of the
  // arena; fragmentation = 1 - largest free extent / total free bytes
  // (0 when the free space is one extent or the arena is full).
  struct ArenaStats {
    double occupancy_pct = 0.0;
    double fragmentation_pct = 0.0;
  };
  std::vector<ArenaStats> ArenaUtilization() const;

  // The node's shared pool, created on first use and parked on the node
  // (rdma::Node::pool_handle), so channels, buffers, and stores on one node
  // share a single allocator.
  static std::shared_ptr<Pool> Shared(rdma::Node& node);
  static Pool& Of(rdma::Node& node) { return *Shared(node); }

 private:
  struct Slab {
    int class_index = 0;
    size_t base_offset = 0;
    uint32_t arena_index = 0;
    uint32_t live = 0;
    std::vector<uint32_t> free_chunks;
  };

  struct Arena {
    rdma::MemoryRegion* mr = nullptr;
    // Free buddy blocks, by order, keyed by offset.
    std::vector<std::unordered_set<size_t>> free_by_order;
    // Outstanding buddy allocations: offset -> order.
    std::unordered_map<size_t, int> allocated_order;
    // Leaf blocks currently carved into slabs: block offset -> slab.
    std::unordered_map<size_t, std::unique_ptr<Slab>> slabs;
  };

  static size_t ChunkBytes(int class_index) { return rdma::kMemBlockBytes >> (class_index + 1); }

  Arena& EnsureArenaWithOrder(int order);
  Span BuddyAlloc(int order, size_t size);
  void BuddyFree(Arena& arena, size_t offset, int order);
  Span SlabAlloc(int class_index, size_t size);
  void SlabFree(Arena& arena, Slab& slab, size_t offset);
  Span HugeAlloc(size_t size);

  rdma::Node& node_;
  const std::string node_name_;  // own copy: pool may be flushed mid node teardown

  std::vector<std::unique_ptr<Arena>> arenas_;
  std::unordered_map<const rdma::MemoryRegion*, uint32_t> arena_by_mr_;
  // Partially-filled (or cached fully-free) slabs per class.
  std::array<std::vector<Slab*>, rdma::kMemSlabClasses> partial_slabs_;
  // Huge regions (> one arena) cached for reuse, keyed by reserved size.
  std::unordered_map<size_t, std::vector<rdma::MemoryRegion*>> huge_free_;
  std::unordered_map<const rdma::MemoryRegion*, size_t> huge_sizes_;
  size_t huge_count_ = 0;

  size_t registered_bytes_ = 0;
  size_t in_use_bytes_ = 0;
  uint64_t allocs_ = 0;
  uint64_t frees_ = 0;
  uint64_t mr_reuses_ = 0;
  uint64_t registrations_ = 0;
};

}  // namespace mem

#endif  // SRC_MEM_POOL_H_
