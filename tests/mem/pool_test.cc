// Unit suite for the registered-memory allocator (docs/memory.md): buddy
// split/coalesce round-trips, slab reuse, the huge path, exhaustion under a
// max_registered_bytes cap, alignment, and the registration accounting that
// the zero-re-registration contract rests on.

#include "src/mem/pool.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace mem {
namespace {

using rdma::kMemArenaBytes;
using rdma::kMemBlockBytes;

// Every pool runs the fixed geometry: 4 KiB blocks, 13 orders => 16 MiB
// arenas, 6 slab classes (64 B .. 2 KiB). Arenas are demand-zero mappings,
// so an arena costs host memory only for the pages a test writes.
class PoolTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node& node_{fabric_.AddNode("n")};
};

// The pool's one setting, the registration budget, is checked where it is
// set: a fabric whose NicConfig budget is below one arena fails to
// construct, so no pool is ever built with it.
TEST_F(PoolTest, ConstructorValidatesOptions) {
  rdma::FabricConfig config;
  config.nic.mem_max_registered_bytes = kMemArenaBytes - 1;
  EXPECT_THROW(rdma::Fabric(engine_, config), std::invalid_argument);
}

// A pool built on a node takes the NicConfig budget as its own and
// enforces it: two arenas fit, a third does not.
TEST(PoolOptionsTest, FromNicConfigMirrorsKnobs) {
  sim::Engine engine;
  rdma::FabricConfig config;
  config.nic.mem_max_registered_bytes = 2 * kMemArenaBytes;
  rdma::Fabric fabric(engine, config);
  Pool pool(fabric.AddNode("n"));
  EXPECT_EQ(pool.max_registered_bytes(), 2 * kMemArenaBytes);
  const Span a = pool.Alloc(kMemArenaBytes);
  const Span b = pool.Alloc(kMemArenaBytes);
  EXPECT_EQ(pool.registered_bytes(), 2 * kMemArenaBytes);
  EXPECT_THROW(pool.Alloc(kMemBlockBytes), ExhaustedError);
  pool.Free(a);
  pool.Free(b);
}

// ---- Buddy split / coalesce ---------------------------------------------------

TEST_F(PoolTest, ConstructionRegistersNothing) {
  Pool pool(node_);
  EXPECT_EQ(pool.registrations(), 0u);
  EXPECT_EQ(pool.registered_bytes(), 0u);
  EXPECT_EQ(pool.arena_count(), 0u);
}

TEST_F(PoolTest, BuddySplitAndCoalesceRoundTrip) {
  Pool pool(node_);
  const size_t arena = kMemArenaBytes;

  // Fill the arena with leaf blocks: repeated splits down to order 0.
  std::vector<Span> blocks;
  for (size_t i = 0; i < arena / kMemBlockBytes; ++i) {
    blocks.push_back(pool.Alloc(kMemBlockBytes));
  }
  EXPECT_EQ(pool.registrations(), 1u) << "one arena must satisfy all leaf blocks";
  EXPECT_EQ(pool.in_use_bytes(), arena);

  // Freeing every block must coalesce all the way back up: a full-arena
  // allocation fits again without registering a second arena.
  for (const Span& s : blocks) {
    pool.Free(s);
  }
  EXPECT_EQ(pool.in_use_bytes(), 0u);
  const Span whole = pool.Alloc(arena);
  EXPECT_EQ(pool.registrations(), 1u) << "coalescing failed: buddies did not merge";
  EXPECT_EQ(whole.offset, 0u);
  pool.Free(whole);
}

TEST_F(PoolTest, FreedBuddyBlocksAreReused) {
  Pool pool(node_);
  const Span a = pool.Alloc(8192);
  pool.Free(a);
  const Span b = pool.Alloc(8192);
  EXPECT_EQ(b.mr, a.mr);
  EXPECT_EQ(b.offset, a.offset);
  EXPECT_EQ(pool.mr_reuses(), 1u);
  pool.Free(b);
}

TEST_F(PoolTest, SecondArenaOnlyWhenFirstIsFull) {
  Pool pool(node_);
  const Span first = pool.Alloc(kMemArenaBytes);
  EXPECT_EQ(pool.registrations(), 1u);
  const Span second = pool.Alloc(4096);  // no room left: new arena
  EXPECT_EQ(pool.registrations(), 2u);
  EXPECT_NE(second.mr, first.mr);
  pool.Free(first);
  pool.Free(second);
}

// ---- Slab front-end -----------------------------------------------------------

TEST_F(PoolTest, SlabChunksComeFromOneLeafBlock) {
  Pool pool(node_);
  // 512-byte class: 8 chunks per 4 KiB leaf block.
  std::vector<Span> chunks;
  for (int i = 0; i < 8; ++i) {
    chunks.push_back(pool.Alloc(400));
  }
  EXPECT_EQ(pool.registrations(), 1u);
  for (size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].mr, chunks[0].mr);
  }
  // Chunks tile the block without overlap.
  std::vector<size_t> offsets;
  for (const Span& s : chunks) {
    offsets.push_back(s.offset);
  }
  std::sort(offsets.begin(), offsets.end());
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i] - offsets[i - 1], 512u);
  }
  for (const Span& s : chunks) {
    pool.Free(s);
  }
}

TEST_F(PoolTest, SlabFreeRecyclesWithoutRegistration) {
  Pool pool(node_);
  for (int cycle = 0; cycle < 100; ++cycle) {
    const Span s = pool.Alloc(1000);
    pool.Free(s);
  }
  EXPECT_EQ(pool.registrations(), 1u);
  EXPECT_EQ(pool.allocs(), 100u);
  EXPECT_EQ(pool.frees(), 100u);
  EXPECT_EQ(pool.mr_reuses(), 99u) << "every alloc after the first reuses the MR";
  EXPECT_EQ(pool.in_use_bytes(), 0u);
}

TEST_F(PoolTest, MagazineOverflowCoalescesSlabsBackToBuddy) {
  Pool pool(node_);
  // Carve every leaf block of one arena into 2 KiB slabs (2 chunks each).
  const size_t blocks = kMemArenaBytes / kMemBlockBytes;
  std::vector<Span> chunks;
  for (size_t i = 0; i < 2 * blocks; ++i) {
    chunks.push_back(pool.Alloc(kMemBlockBytes / 2));
  }
  EXPECT_EQ(pool.registrations(), 1u);
  // Freeing slab by slab caches the first kMemSlabMagazine fully-free slabs;
  // every later one dissolves back into the buddy.
  for (const Span& s : chunks) {
    pool.Free(s);
  }
  EXPECT_EQ(pool.in_use_bytes(), 0u);
  const size_t magazine = static_cast<size_t>(rdma::kMemSlabMagazine);
  std::vector<Span> leaves;
  for (size_t i = 0; i < blocks - magazine; ++i) {
    leaves.push_back(pool.Alloc(kMemBlockBytes));
  }
  EXPECT_EQ(pool.registrations(), 1u) << "dissolved slabs must coalesce back into the buddy";
  leaves.push_back(pool.Alloc(kMemBlockBytes));
  EXPECT_EQ(pool.registrations(), 2u) << "cached slabs must stay carved";
  for (const Span& s : leaves) {
    pool.Free(s);
  }
}

TEST_F(PoolTest, ZeroByteAllocIsServed) {
  Pool pool(node_);
  const Span s = pool.Alloc(0);
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.size, 0u);
  EXPECT_EQ(s.bytes().size(), 0u);
  pool.Free(s);
  EXPECT_EQ(pool.in_use_bytes(), 0u);
}

// ---- Huge path ----------------------------------------------------------------

TEST_F(PoolTest, HugeAllocationGetsDedicatedRegionAndReuse) {
  Pool pool(node_);
  const size_t huge = kMemArenaBytes * 2;
  const Span a = pool.Alloc(huge);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(pool.registrations(), 1u);
  pool.Free(a);
  // Same-size reallocation reuses the cached region: no new registration.
  const Span b = pool.Alloc(huge);
  EXPECT_EQ(b.mr, a.mr);
  EXPECT_EQ(pool.registrations(), 1u);
  EXPECT_EQ(pool.mr_reuses(), 1u);
  pool.Free(b);
}

// ---- Exhaustion and misuse ----------------------------------------------------

TEST_F(PoolTest, ExhaustionThrowsCleanlyAndPoolStaysUsable) {
  rdma::FabricConfig config;
  config.nic.mem_max_registered_bytes = kMemArenaBytes;  // one arena
  rdma::Fabric capped(engine_, config);
  Pool pool(capped.AddNode("capped"));
  EXPECT_EQ(pool.max_registered_bytes(), kMemArenaBytes);

  const Span whole = pool.Alloc(kMemArenaBytes);  // fills the one allowed arena
  EXPECT_THROW(pool.Alloc(4096), ExhaustedError) << "second arena exceeds the cap";
  EXPECT_THROW(pool.Alloc(kMemArenaBytes * 4), ExhaustedError) << "huge path too";

  // The failure is a clean resource condition: freeing makes room again.
  pool.Free(whole);
  const Span retry = pool.Alloc(4096);
  EXPECT_TRUE(retry.valid());
  EXPECT_EQ(pool.registrations(), 1u);
  pool.Free(retry);
}

TEST_F(PoolTest, FreeingInvalidSpanIsNoOp) {
  Pool pool(node_);
  EXPECT_NO_THROW(pool.Free(Span{}));
  EXPECT_EQ(pool.frees(), 0u);
}

TEST_F(PoolTest, FreeingForeignSpanThrows) {
  Pool pool(node_);
  rdma::MemoryRegion* foreign = node_.RegisterMemory(4096, rdma::kAccessLocal);
  EXPECT_THROW(pool.Free(Span{foreign, 0, 64}), std::invalid_argument);
}

TEST_F(PoolTest, FreeingUnallocatedBuddyOffsetThrows) {
  Pool pool(node_);
  const Span s = pool.Alloc(8192);
  // Same arena MR, but an offset the buddy never handed out.
  EXPECT_THROW(pool.Free(Span{s.mr, s.offset + 8192, 8192}), std::invalid_argument);
  pool.Free(s);
}

// ---- Alignment ----------------------------------------------------------------

TEST_F(PoolTest, SpansAlignToTheirRoundedSize) {
  Pool pool(node_);
  const size_t min_chunk = kMemBlockBytes >> rdma::kMemSlabClasses;
  std::vector<Span> spans;
  for (size_t size : {size_t{1}, size_t{100}, size_t{512}, size_t{900}, size_t{2048},
                      size_t{4096}, size_t{6000}, size_t{16384}}) {
    const Span s = pool.Alloc(size);
    const size_t align = std::bit_ceil(std::max(size, min_chunk));
    EXPECT_EQ(s.offset % align, 0u) << "size " << size;
    EXPECT_EQ(s.size, size);
    EXPECT_EQ(s.bytes().size(), size);
    spans.push_back(s);
  }
  for (const Span& s : spans) {
    pool.Free(s);
  }
}

// ---- Fragmentation stress -----------------------------------------------------

TEST_F(PoolTest, SeededChurnStaysConsistentAndRecyclesMemory) {
  Pool pool(node_);
  sim::Rng rng(20260808);
  std::vector<Span> live;
  // Mixed-size churn across slab, buddy, and (rarely) huge paths.
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.NextBounded(3) < 2) {
      const size_t size = 1 + rng.NextBounded(kMemArenaBytes / 2);
      Span s = pool.Alloc(size);
      // Touch both ends: the span must be fully inside its MR.
      s.bytes().front() = std::byte{0xAB};
      s.bytes().back() = std::byte{0xCD};
      live.push_back(s);
    } else {
      const size_t victim = rng.NextBounded(live.size());
      pool.Free(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(pool.allocs(), pool.frees() + live.size());

  // Utilization snapshot is well-formed under fragmentation.
  for (const Pool::ArenaStats& stats : pool.ArenaUtilization()) {
    EXPECT_GE(stats.occupancy_pct, 0.0);
    EXPECT_LE(stats.occupancy_pct, 100.0);
    EXPECT_GE(stats.fragmentation_pct, 0.0);
    EXPECT_LE(stats.fragmentation_pct, 100.0);
  }

  // Draining the survivors returns every byte; arenas stay registered for
  // reuse (never deregistered), and a fresh full-arena alloc proves the free
  // space coalesced rather than leaking into fragments.
  for (const Span& s : live) {
    pool.Free(s);
  }
  EXPECT_EQ(pool.in_use_bytes(), 0u);
  const uint64_t registrations_before = pool.registrations();
  const Span whole = pool.Alloc(kMemArenaBytes);
  EXPECT_EQ(pool.registrations(), registrations_before);
  pool.Free(whole);
}

// ---- Shared per-node pool -----------------------------------------------------

TEST_F(PoolTest, SharedReturnsOneInstancePerNode) {
  std::shared_ptr<Pool> a = Pool::Shared(node_);
  std::shared_ptr<Pool> b = Pool::Shared(node_);
  EXPECT_EQ(a.get(), b.get());
  rdma::Node& other = fabric_.AddNode("m");
  EXPECT_NE(Pool::Shared(other).get(), a.get());
}

TEST_F(PoolTest, SharedPoolFollowsNodeNicConfig) {
  EXPECT_EQ(Pool::Shared(node_)->max_registered_bytes(), 0u);
  rdma::FabricConfig config;
  config.nic.mem_max_registered_bytes = 3 * kMemArenaBytes;
  rdma::Fabric capped(engine_, config);
  std::shared_ptr<Pool> pool = Pool::Shared(capped.AddNode("capped"));
  EXPECT_EQ(pool->max_registered_bytes(), 3 * kMemArenaBytes);
}

}  // namespace
}  // namespace mem
