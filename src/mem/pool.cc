#include "src/mem/pool.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/obs/metrics.h"

namespace mem {

namespace {

using rdma::kMemArenaBytes;
using rdma::kMemBlockBytes;

constexpr int Log2(size_t v) { return static_cast<int>(std::bit_width(v)) - 1; }

constexpr int kMaxOrder = rdma::kMemPoolLevel - 1;
// Smallest slab chunk: every allocation rounds up to at least this.
constexpr size_t kMinChunk = kMemBlockBytes >> rdma::kMemSlabClasses;

// `rounded` is a power of two in [kMinChunk, block/2].
constexpr int ClassIndexFor(size_t rounded) { return Log2(kMemBlockBytes) - Log2(rounded) - 1; }

// `rounded` is a power of two in [block, arena].
constexpr int OrderFor(size_t rounded) { return Log2(rounded) - Log2(kMemBlockBytes); }

}  // namespace

Pool::Pool(rdma::Node& node)
    : node_(node),
      max_registered_bytes_(node.nic().config().mem_max_registered_bytes),
      node_name_(node.name()) {}

Pool::~Pool() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels{{"node", node_name_}};
  if (allocs_ > 0) reg.GetCounter("mem.alloc", labels)->Add(allocs_);
  if (frees_ > 0) reg.GetCounter("mem.free", labels)->Add(frees_);
  if (mr_reuses_ > 0) reg.GetCounter("mem.mr_reuse", labels)->Add(mr_reuses_);
  if (registrations_ > 0) reg.GetCounter("mem.registrations", labels)->Add(registrations_);
  reg.GetGauge("mem.registered_bytes", labels)->Set(static_cast<double>(registered_bytes_));
  reg.GetGauge("mem.in_use_bytes", labels)->Set(static_cast<double>(in_use_bytes_));
  reg.GetGauge("mem.arenas", labels)->Set(static_cast<double>(arena_count()));
  if (!arenas_.empty()) {
    sim::Histogram* occ = reg.GetHistogram("mem.arena_occupancy_pct", labels);
    sim::Histogram* frag = reg.GetHistogram("mem.arena_fragmentation_pct", labels);
    for (const ArenaStats& stats : ArenaUtilization()) {
      occ->Record(static_cast<int64_t>(stats.occupancy_pct + 0.5));
      frag->Record(static_cast<int64_t>(stats.fragmentation_pct + 0.5));
    }
  }
}

void Pool::CheckRegistrationBudget(size_t bytes) const {
  if (max_registered_bytes_ != 0 && registered_bytes_ + bytes > max_registered_bytes_) {
    throw ExhaustedError(
        "mem::Pool exhausted on " + node_name_ + ": registering " + std::to_string(bytes) +
        " more bytes would exceed max_registered_bytes=" +
        std::to_string(max_registered_bytes_) + " (currently registered " +
        std::to_string(registered_bytes_) + ")");
  }
}

Span Pool::Alloc(size_t size) {
  const uint64_t registrations_before = registrations_;
  Span span;
  const size_t rounded = std::bit_ceil(std::max(size, kMinChunk));
  if (rounded < kMemBlockBytes) {
    span = SlabAlloc(ClassIndexFor(rounded), size);
  } else if (rounded <= kMemArenaBytes) {
    span = BuddyAlloc(OrderFor(rounded), size);
  } else {
    span = HugeAlloc(size);
  }
  ++allocs_;
  if (registrations_ == registrations_before) {
    ++mr_reuses_;
  }
  return span;
}

void Pool::Free(const Span& span) {
  if (!span.valid()) {
    return;
  }
  ++frees_;
  auto arena_it = arena_by_mr_.find(span.mr);
  if (arena_it != arena_by_mr_.end()) {
    Arena& arena = *arenas_[arena_it->second];
    const size_t block_off = span.offset & ~(kMemBlockBytes - 1);
    auto slab_it = arena.slabs.find(block_off);
    if (slab_it != arena.slabs.end()) {
      SlabFree(arena, *slab_it->second, span.offset);
      return;
    }
    auto order_it = arena.allocated_order.find(span.offset);
    if (order_it == arena.allocated_order.end()) {
      throw std::invalid_argument("mem::Pool::Free: span not allocated from this pool");
    }
    const int order = order_it->second;
    arena.allocated_order.erase(order_it);
    in_use_bytes_ -= kMemBlockBytes << order;
    BuddyFree(arena, span.offset, order);
    return;
  }
  auto huge_it = huge_sizes_.find(span.mr);
  if (huge_it != huge_sizes_.end()) {
    in_use_bytes_ -= huge_it->second;
    huge_free_[huge_it->second].push_back(span.mr);
    return;
  }
  throw std::invalid_argument("mem::Pool::Free: span not owned by this pool");
}

Pool::Arena& Pool::EnsureArenaWithOrder(int order) {
  for (auto& arena : arenas_) {
    for (int o = order; o <= kMaxOrder; ++o) {
      if (!arena->free_by_order[static_cast<size_t>(o)].empty()) {
        return *arena;
      }
    }
  }
  CheckRegistrationBudget(kMemArenaBytes);
  auto arena = std::make_unique<Arena>();
  arena->mr = node_.RegisterMemory(kMemArenaBytes, kArenaAccess);
  arena->free_by_order.resize(static_cast<size_t>(kMaxOrder) + 1);
  arena->free_by_order[static_cast<size_t>(kMaxOrder)].insert(0);
  registered_bytes_ += kMemArenaBytes;
  ++registrations_;
  arena_by_mr_[arena->mr] = static_cast<uint32_t>(arenas_.size());
  arenas_.push_back(std::move(arena));
  return *arenas_.back();
}

Span Pool::BuddyAlloc(int order, size_t size) {
  Arena& arena = EnsureArenaWithOrder(order);
  int have = order;
  while (arena.free_by_order[static_cast<size_t>(have)].empty()) {
    ++have;
  }
  size_t offset = *arena.free_by_order[static_cast<size_t>(have)].begin();
  arena.free_by_order[static_cast<size_t>(have)].erase(offset);
  while (have > order) {
    --have;
    // Keep the lower half, release the upper buddy at the shrunk order.
    arena.free_by_order[static_cast<size_t>(have)].insert(offset +
                                                          (kMemBlockBytes << have));
  }
  arena.allocated_order[offset] = order;
  in_use_bytes_ += kMemBlockBytes << order;
  return Span{arena.mr, offset, size};
}

void Pool::BuddyFree(Arena& arena, size_t offset, int order) {
  size_t cur = offset;
  while (order < kMaxOrder) {
    const size_t buddy = cur ^ (kMemBlockBytes << order);
    auto& peers = arena.free_by_order[static_cast<size_t>(order)];
    auto it = peers.find(buddy);
    if (it == peers.end()) {
      break;
    }
    peers.erase(it);
    cur = std::min(cur, buddy);
    ++order;
  }
  arena.free_by_order[static_cast<size_t>(order)].insert(cur);
}

Span Pool::SlabAlloc(int class_index, size_t size) {
  auto& partials = partial_slabs_[static_cast<size_t>(class_index)];
  if (partials.empty()) {
    // Carve a fresh leaf block into chunks of this class.
    Arena& arena = EnsureArenaWithOrder(0);
    int have = 0;
    while (arena.free_by_order[static_cast<size_t>(have)].empty()) {
      ++have;
    }
    size_t offset = *arena.free_by_order[static_cast<size_t>(have)].begin();
    arena.free_by_order[static_cast<size_t>(have)].erase(offset);
    while (have > 0) {
      --have;
      arena.free_by_order[static_cast<size_t>(have)].insert(offset +
                                                            (kMemBlockBytes << have));
    }
    auto slab = std::make_unique<Slab>();
    slab->class_index = class_index;
    slab->base_offset = offset;
    slab->arena_index = arena_by_mr_.at(arena.mr);
    const uint32_t chunks =
        static_cast<uint32_t>(kMemBlockBytes / ChunkBytes(class_index));
    slab->free_chunks.reserve(chunks);
    // Descending so chunk 0 pops first.
    for (uint32_t i = chunks; i > 0; --i) {
      slab->free_chunks.push_back(i - 1);
    }
    partials.push_back(slab.get());
    arena.slabs[offset] = std::move(slab);
  }
  Slab* slab = partials.back();
  const uint32_t chunk = slab->free_chunks.back();
  slab->free_chunks.pop_back();
  ++slab->live;
  if (slab->free_chunks.empty()) {
    partials.pop_back();
  }
  const size_t chunk_bytes = ChunkBytes(class_index);
  in_use_bytes_ += chunk_bytes;
  Arena& arena = *arenas_[slab->arena_index];
  return Span{arena.mr, slab->base_offset + chunk * chunk_bytes, size};
}

void Pool::SlabFree(Arena& arena, Slab& slab, size_t offset) {
  const size_t chunk_bytes = ChunkBytes(slab.class_index);
  const size_t rel = offset - slab.base_offset;
  if (rel % chunk_bytes != 0 || slab.live == 0) {
    throw std::invalid_argument("mem::Pool::Free: misaligned slab chunk");
  }
  auto& partials = partial_slabs_[static_cast<size_t>(slab.class_index)];
  if (slab.free_chunks.empty()) {
    partials.push_back(&slab);  // was full, becomes partial again
  }
  slab.free_chunks.push_back(static_cast<uint32_t>(rel / chunk_bytes));
  --slab.live;
  in_use_bytes_ -= chunk_bytes;
  if (slab.live == 0 && partials.size() > static_cast<size_t>(rdma::kMemSlabMagazine)) {
    // Magazine overflow: dissolve this fully-free slab back into the buddy.
    auto it = std::find(partials.begin(), partials.end(), &slab);
    if (it != partials.end()) {
      *it = partials.back();
      partials.pop_back();
    }
    const size_t block_off = slab.base_offset;
    arena.slabs.erase(block_off);  // destroys `slab`
    BuddyFree(arena, block_off, 0);
  }
}

Span Pool::HugeAlloc(size_t size) {
  const size_t reserved = (size + kMemBlockBytes - 1) / kMemBlockBytes * kMemBlockBytes;
  auto it = huge_free_.find(reserved);
  rdma::MemoryRegion* mr = nullptr;
  if (it != huge_free_.end() && !it->second.empty()) {
    mr = it->second.back();
    it->second.pop_back();
  } else {
    CheckRegistrationBudget(reserved);
    mr = node_.RegisterMemory(reserved, kArenaAccess);
    registered_bytes_ += reserved;
    ++registrations_;
    ++huge_count_;
    huge_sizes_[mr] = reserved;
  }
  in_use_bytes_ += reserved;
  return Span{mr, 0, size};
}

std::vector<Pool::ArenaStats> Pool::ArenaUtilization() const {
  std::vector<ArenaStats> stats;
  stats.reserve(arenas_.size());
  for (const auto& arena : arenas_) {
    size_t free_bytes = 0;
    size_t largest = 0;
    for (int o = 0; o <= kMaxOrder; ++o) {
      const size_t block = kMemBlockBytes << o;
      const size_t count = arena->free_by_order[static_cast<size_t>(o)].size();
      free_bytes += block * count;
      if (count > 0) {
        largest = std::max(largest, block);
      }
    }
    for (const auto& [off, slab] : arena->slabs) {
      free_bytes += slab->free_chunks.size() * ChunkBytes(slab->class_index);
    }
    ArenaStats s;
    s.occupancy_pct =
        100.0 * (1.0 - static_cast<double>(free_bytes) / static_cast<double>(kMemArenaBytes));
    s.fragmentation_pct =
        free_bytes == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(largest) / static_cast<double>(free_bytes));
    stats.push_back(s);
  }
  return stats;
}

std::shared_ptr<Pool> Pool::Shared(rdma::Node& node) {
  if (auto existing = std::static_pointer_cast<Pool>(node.pool_handle())) {
    return existing;
  }
  auto pool = std::make_shared<Pool>(node);
  node.set_pool_handle(pool);
  return pool;
}

}  // namespace mem
