// Host backing of registered memory: a region's bytes become resident only
// where the simulation writes them, while the simulated registration counts
// the whole region (src/rdma/memory.h, docs/memory.md "Host backing").

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <fstream>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/rdma/memory.h"
#include "src/sim/engine.h"

namespace rdma {
namespace {

constexpr size_t kMiB = size_t{1} << 20;

// Resident bytes of this process, from /proc/self/statm's second field.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(RegionBackingTest, LargeRegionIsResidentOnlyWhereWritten) {
  sim::Engine engine;
  Fabric fabric(engine);
  Node& node = fabric.AddNode("n0");
  constexpr size_t kBytes = 256 * kMiB;

  const size_t before = ResidentBytes();
  MemoryRegion* mr = node.RegisterMemory(kBytes, kAccessRemoteRead | kAccessRemoteWrite);
  ASSERT_EQ(mr->size(), kBytes);
  EXPECT_EQ(fabric.RegisteredBytes(node), kBytes);
  EXPECT_LT(ResidentBytes(), before + 16 * kMiB) << "registration made the region resident";

  // Untouched bytes read zero: one byte in every 64 KiB, plus both ends.
  size_t nonzero = 0;
  for (size_t off = 0; off < kBytes; off += 64 << 10) {
    nonzero += mr->Load<uint8_t>(off) != 0;
  }
  nonzero += mr->Load<uint64_t>(kBytes - sizeof(uint64_t)) != 0;
  EXPECT_EQ(nonzero, 0u);

  mr->Store<uint8_t>(kBytes - 1, 0x5a);
  EXPECT_EQ(mr->Load<uint8_t>(kBytes - 1), 0x5a);
  EXPECT_TRUE(mr->InBounds(kBytes - 1, 1));
  EXPECT_FALSE(mr->InBounds(kBytes, 1));
  EXPECT_LT(ResidentBytes(), before + 16 * kMiB) << "reads and one store stay small";

  // Writing 32 MiB makes those pages resident; deregistering returns them.
  constexpr size_t kWritten = 32 * kMiB;
  for (size_t off = 0; off < kWritten; off += 4096) {
    mr->Store<uint64_t>(off, off + 1);
  }
  EXPECT_EQ(mr->Load<uint64_t>(kWritten - 4096), kWritten - 4096 + 1);
  EXPECT_GE(ResidentBytes(), before + kWritten / 2);

  const RemoteKey rkey = mr->remote_key();
  fabric.DeregisterMemory(mr);
  EXPECT_EQ(fabric.FindRemote(rkey), nullptr);
  EXPECT_EQ(fabric.RegisteredBytes(node), 0u);
  EXPECT_EQ(fabric.DeregistrationCount(node), 1u);
  EXPECT_LT(ResidentBytes(), before + 16 * kMiB) << "deregistration kept the pages";
}

TEST(RegionBackingTest, OddSizedRegionsKeepTheirBounds) {
  sim::Engine engine;
  Fabric fabric(engine);
  Node& node = fabric.AddNode("n0");
  MemoryRegion* empty = node.RegisterMemory(0, kAccessLocal);
  EXPECT_TRUE(empty->bytes().empty());
  EXPECT_TRUE(empty->InBounds(0, 0));
  EXPECT_FALSE(empty->InBounds(0, 1));

  MemoryRegion* odd = node.RegisterMemory(4099, kAccessLocal);
  EXPECT_EQ(odd->bytes().size(), 4099u);
  odd->Store<uint8_t>(4098, 7);
  EXPECT_EQ(odd->Load<uint8_t>(4098), 7);
  EXPECT_FALSE(odd->InBounds(4099, 1));
}

#if defined(__SANITIZE_ADDRESS__)
// The mapping's slack past the region's end is poisoned, so an overrun that
// skips the InBounds check still traps under ASan.
TEST(RegionBackingDeathTest, OverrunPastTheRegionTraps) {
  sim::Engine engine;
  Fabric fabric(engine);
  Node& node = fabric.AddNode("n0");
  MemoryRegion* mr = node.RegisterMemory(100, kAccessLocal);
  volatile std::byte* end = mr->bytes().data() + mr->size();
  EXPECT_DEATH(static_cast<void>(*end), "use-after-poison");
}
#endif

}  // namespace
}  // namespace rdma
