#include "src/kv/bucket_table.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/rdma/fabric.h"
#include "src/kv/common.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace kv {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

TEST(BucketTableTest, PutGetRoundTrip) {
  BucketTable table(64);
  table.Put(Bytes("key1"), Bytes("value1"));
  auto v = table.Get(Bytes("key1"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(v->data()), v->size()), "value1");
  EXPECT_EQ(table.size(), 1u);
}

TEST(BucketTableTest, MissingKeyReturnsNullopt) {
  BucketTable table(64);
  EXPECT_FALSE(table.Get(Bytes("nope")).has_value());
  EXPECT_EQ(table.stats().misses, 1u);
}

TEST(BucketTableTest, OverwriteUpdatesInPlace) {
  BucketTable table(64);
  table.Put(Bytes("k"), Bytes("old"));
  table.Put(Bytes("k"), Bytes("newer-and-longer"));
  auto v = table.Get(Bytes("k"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->size(), 16u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().updates, 1u);
}

// Heap mode moves a key whose value shrinks below half its cell, and back
// out when it grows again; each move must carry the new bytes and count as
// one update.
TEST(BucketTableTest, ShrinkGrowShrinkRoundTrip) {
  BucketTable table(64);
  const std::string big(8192, 'b');
  const std::string bigger(9000, 'B');
  const std::vector<std::string> values = {big, "tiny", bigger, std::string(4500, 'h'),
                                           "x", big};
  for (size_t i = 0; i < values.size(); ++i) {
    table.Put(Bytes("k"), Bytes(values[i]));
    auto v = table.Get(Bytes("k"));
    ASSERT_TRUE(v.has_value()) << i;
    ASSERT_EQ(v->size(), values[i].size()) << i;
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(v->data()), v->size()), values[i]) << i;
    EXPECT_EQ(table.stats().updates, i) << i;
  }
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().inserts, 1u);
}

TEST(BucketTableTest, EraseRemoves) {
  BucketTable table(64);
  table.Put(Bytes("k"), Bytes("v"));
  EXPECT_TRUE(table.Erase(Bytes("k")));
  EXPECT_FALSE(table.Get(Bytes("k")).has_value());
  EXPECT_FALSE(table.Erase(Bytes("k")));
  EXPECT_EQ(table.size(), 0u);
}

TEST(BucketTableTest, BucketCountRoundsUpToPowerOfTwo) {
  BucketTable table(100);
  EXPECT_EQ(table.num_buckets(), 128u);
}

TEST(BucketTableTest, ZeroBucketsThrows) {
  EXPECT_THROW(BucketTable(0), std::invalid_argument);
}

// With a single bucket, every key collides, exposing the strict LRU policy
// (paper Section 4.1: 8 slots per bucket, strict LRU eviction).
TEST(BucketTableTest, StrictLruEvictionInFullBucket) {
  BucketTable table(1);
  for (int i = 0; i < 8; ++i) {
    table.Put(Bytes("key" + std::to_string(i)), Bytes("v"));
  }
  EXPECT_EQ(table.size(), 8u);
  // Touch key0..key6 so key7 becomes the least recently used.
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(table.Get(Bytes("key" + std::to_string(i))).has_value());
  }
  table.Put(Bytes("key8"), Bytes("v"));
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.stats().evictions, 1u);
  EXPECT_FALSE(table.Get(Bytes("key7")).has_value()) << "LRU victim must be key7";
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(table.Get(Bytes("key" + std::to_string(i))).has_value());
  }
  EXPECT_TRUE(table.Get(Bytes("key8")).has_value());
}

TEST(BucketTableTest, GetRefreshesLruRank) {
  BucketTable table(1);
  for (int i = 0; i < 8; ++i) {
    table.Put(Bytes("key" + std::to_string(i)), Bytes("v"));
  }
  // key0 is the oldest insert, but a Get refreshes it...
  EXPECT_TRUE(table.Get(Bytes("key0")).has_value());
  table.Put(Bytes("key8"), Bytes("v"));
  // ...so the eviction victim is key1, not key0.
  EXPECT_TRUE(table.Get(Bytes("key0")).has_value());
  EXPECT_FALSE(table.Get(Bytes("key1")).has_value());
}

TEST(BucketTableTest, EvictionsCascadeThroughLruOrder) {
  BucketTable table(1);
  for (int i = 0; i < 8; ++i) {
    table.Put(Bytes("key" + std::to_string(i)), Bytes("v"));
  }
  // Three more inserts evict the three oldest: key0, key1, key2.
  for (int i = 8; i < 11; ++i) {
    table.Put(Bytes("key" + std::to_string(i)), Bytes("v"));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(table.Get(Bytes("key" + std::to_string(i))).has_value());
  }
  for (int i = 3; i < 11; ++i) {
    EXPECT_TRUE(table.Get(Bytes("key" + std::to_string(i))).has_value());
  }
}

TEST(BucketTableTest, EraseKeepsLruConsistent) {
  BucketTable table(1);
  for (int i = 0; i < 8; ++i) {
    table.Put(Bytes("key" + std::to_string(i)), Bytes("v"));
  }
  EXPECT_TRUE(table.Erase(Bytes("key3")));
  // The freed slot absorbs the next insert without eviction.
  table.Put(Bytes("key8"), Bytes("v"));
  EXPECT_EQ(table.stats().evictions, 0u);
  EXPECT_EQ(table.size(), 8u);
}

// Randomized oracle test against std::map, sized so no evictions occur.
TEST(BucketTableTest, MatchesOracleWithoutEvictions) {
  BucketTable table(4096);  // 32k slots
  std::map<std::string, std::string> oracle;
  sim::Rng rng(123);
  for (int step = 0; step < 20000; ++step) {
    const std::string key = "key" + std::to_string(rng.NextBounded(800));
    const uint64_t action = rng.NextBounded(10);
    if (action < 5) {
      const std::string value = "value" + std::to_string(rng.Next() & 0xffff);
      table.Put(Bytes(key), Bytes(value));
      oracle[key] = value;
    } else if (action < 8) {
      auto got = table.Get(Bytes(key));
      auto expect = oracle.find(key);
      if (expect == oracle.end()) {
        EXPECT_FALSE(got.has_value()) << key;
      } else {
        ASSERT_TRUE(got.has_value()) << key;
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(got->data()), got->size()),
                  expect->second);
      }
    } else {
      EXPECT_EQ(table.Erase(Bytes(key)), oracle.erase(key) > 0) << key;
    }
  }
  EXPECT_EQ(table.size(), oracle.size());
  EXPECT_EQ(table.stats().evictions, 0u);
}

// ---- Pool-backed storage mode (docs/memory.md) --------------------------------

class PoolBucketTableTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node& node_{fabric_.AddNode("server")};
};

TEST_F(PoolBucketTableTest, HeapModeHasNoPinnedPath) {
  BucketTable table(64);
  EXPECT_FALSE(table.pool_backed());
  table.Put(Bytes("k"), Bytes("v"));
  EXPECT_THROW(table.GetPinned(Bytes("k")), std::logic_error);
}

TEST_F(PoolBucketTableTest, PoolModeRoundTripsThroughRegisteredSlabs) {
  BucketTable table(64, node_);
  EXPECT_TRUE(table.pool_backed());
  table.Put(Bytes("k"), Bytes("value"));
  auto v = table.Get(Bytes("k"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(v->data()), v->size()), "value");

  auto pinned = table.GetPinned(Bytes("k"));
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(pinned->len, 5u);
  EXPECT_EQ(pinned->epoch, 0u);
  // The descriptor resolves through the fabric like a remote client would.
  rdma::MemoryRegion* mr = fabric_.FindRemote(rdma::RemoteKey{pinned->rkey});
  ASSERT_NE(mr, nullptr);
  auto bytes = mr->bytes().subspan(pinned->offset, pinned->len);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()), "value");
}

TEST_F(PoolBucketTableTest, UnpinnedOverwriteUpdatesInPlaceAndBumpsEpoch) {
  BucketTable table(64, node_);
  table.Put(Bytes("k"), Bytes("AAAA"));
  uint32_t rkey = 0;
  size_t offset = 0;
  {
    // Scoped so the pin is released before the overwrite below.
    const auto first = table.GetPinned(Bytes("k"));
    ASSERT_TRUE(first.has_value());
    rkey = first->rkey;
    offset = first->offset;
  }

  table.Put(Bytes("k"), Bytes("BB"));  // fits, nothing pinned: in place
  const auto second = table.GetPinned(Bytes("k"));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->rkey, rkey);
  EXPECT_EQ(second->offset, offset);
  EXPECT_EQ(second->len, 2u);
  EXPECT_EQ(second->epoch, 1u) << "every overwrite must bump the reuse epoch";
  EXPECT_EQ(table.stats().cow_puts, 0u);
}

TEST_F(PoolBucketTableTest, PinnedOverwriteCopiesOnWrite) {
  BucketTable table(64, node_);
  table.Put(Bytes("k"), Bytes("AAAA"));
  auto pinned = table.GetPinned(Bytes("k"));
  ASSERT_TRUE(pinned.has_value());

  table.Put(Bytes("k"), Bytes("BBBB"));  // same size, but the entry is pinned
  EXPECT_EQ(table.stats().cow_puts, 1u);

  // The pinned snapshot still reads the old bytes...
  rdma::MemoryRegion* mr = fabric_.FindRemote(rdma::RemoteKey{pinned->rkey});
  auto old_bytes = mr->bytes().subspan(pinned->offset, pinned->len);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(old_bytes.data()), old_bytes.size()),
            "AAAA");
  // ...while the table serves the new cell at a different location.
  auto fresh = table.GetPinned(Bytes("k"));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(fresh->rkey != pinned->rkey || fresh->offset != pinned->offset);
  EXPECT_EQ(fresh->epoch, 1u);
  auto v = table.Get(Bytes("k"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(v->data()), v->size()), "BBBB");
}

TEST_F(PoolBucketTableTest, OutgrowingValueMovesToLargerSpan) {
  BucketTable table(64, node_);
  table.Put(Bytes("k"), Bytes("small"));
  table.Put(Bytes("k"), Bytes(std::string(5000, 'z')));  // outgrows the slab chunk
  auto v = table.Get(Bytes("k"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->size(), 5000u);
  EXPECT_EQ(table.stats().updates, 1u);
}

TEST_F(PoolBucketTableTest, PoolModeMatchesOracleUnderChurn) {
  BucketTable table(256, node_);
  std::map<std::string, std::string> oracle;
  sim::Rng rng(777);
  for (int step = 0; step < 5000; ++step) {
    const std::string key = "key" + std::to_string(rng.NextBounded(300));
    const uint64_t action = rng.NextBounded(10);
    if (action < 5) {
      const std::string value(1 + rng.NextBounded(600), static_cast<char>('a' + step % 26));
      table.Put(Bytes(key), Bytes(value));
      oracle[key] = value;
    } else if (action < 8) {
      auto got = table.Get(Bytes(key));
      auto expect = oracle.find(key);
      if (expect == oracle.end()) {
        EXPECT_FALSE(got.has_value()) << key;
      } else {
        ASSERT_TRUE(got.has_value()) << key;
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(got->data()), got->size()),
                  expect->second);
      }
    } else {
      EXPECT_EQ(table.Erase(Bytes(key)), oracle.erase(key) > 0) << key;
    }
  }
  EXPECT_EQ(table.size(), oracle.size());
}

// ---- Eviction-heavy oracle -----------------------------------------------------
//
// 1-4 buckets hold 8-32 keys, so most inserts evict. The model keeps each
// bucket (chosen by kv::HashBytes, as the table does) as a most-recent-first
// list of at most kSlotsPerBucket entries: strict per-bucket LRU. Values run
// from 0 B to 8 KiB, overwrites grow and shrink them, and Erase, Clear and
// SnapshotChunk are mixed in. After every op the test checks the op's result,
// size() and every Stats counter. Pool mode also holds zero-copy pins, which
// must turn a PUT on the pinned key into a copy-on-write and keep the pinned
// bytes intact until the pin drops.

struct LruModel {
  struct Item {
    std::string key;
    std::string value;
    uint64_t cell = 0;  // bumps whenever the key's pool-mode span changes
  };

  explicit LruModel(size_t buckets) : lists(buckets) {}

  std::vector<Item>& ListFor(const std::string& key) {
    return lists[HashBytes(Bytes(key)) & (lists.size() - 1)];
  }
  // Position of `key` in its bucket's list, or -1.
  static int Find(const std::vector<Item>& list, const std::string& key) {
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].key == key) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  static void MoveToFront(std::vector<Item>& list, int i) {
    std::rotate(list.begin(), list.begin() + i, list.begin() + i + 1);
  }
  size_t size() const {
    size_t n = 0;
    for (const auto& list : lists) {
      n += list.size();
    }
    return n;
  }

  std::vector<std::vector<Item>> lists;
  BucketTable::Stats stats;
  uint64_t next_cell = 1;
};

void ExpectStats(const BucketTable::Stats& got, const BucketTable::Stats& want, int step) {
  EXPECT_EQ(got.hits, want.hits) << "step " << step;
  EXPECT_EQ(got.misses, want.misses) << "step " << step;
  EXPECT_EQ(got.inserts, want.inserts) << "step " << step;
  EXPECT_EQ(got.updates, want.updates) << "step " << step;
  EXPECT_EQ(got.evictions, want.evictions) << "step " << step;
  EXPECT_EQ(got.erases, want.erases) << "step " << step;
  EXPECT_EQ(got.cow_puts, want.cow_puts) << "step " << step;
}

std::string AsString(std::span<const std::byte> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

// Snapshots the whole table in small chunks and returns its contents.
std::map<std::string, std::string> SnapshotAll(const BucketTable& table) {
  std::vector<BucketTable::SnapshotItem> items;
  size_t cursor = 0;
  while (cursor < table.num_buckets()) {
    cursor = table.SnapshotChunk(cursor, 1, &items);
  }
  std::map<std::string, std::string> out;
  for (const BucketTable::SnapshotItem& item : items) {
    EXPECT_TRUE(out.emplace(AsString(item.key), AsString(item.value)).second);
  }
  return out;
}

class BucketTableEvictionOracleTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {
 protected:
  sim::Engine engine_;
  rdma::Fabric fabric_{engine_};
  rdma::Node& node_{fabric_.AddNode("server")};
};

TEST_P(BucketTableEvictionOracleTest, MatchesStrictLruModel) {
  const auto [pool_mode, buckets] = GetParam();
  BucketTable table = pool_mode ? BucketTable(buckets, node_) : BucketTable(buckets);
  LruModel model(buckets);
  sim::Rng rng(pool_mode ? 91 : 19);

  // Keys of 1-24 bytes, so value offsets take every 8-byte rounding.
  std::vector<std::string> keys;
  for (size_t i = 0; i < 3 * buckets * BucketTable::kSlotsPerBucket; ++i) {
    keys.push_back(std::string(1 + i % 24, static_cast<char>('a' + i % 26)) + std::to_string(i));
  }
  struct Pin {
    BucketTable::PinnedValue value;
    std::string key;
    std::string bytes;
    uint64_t cell = 0;
  };
  std::vector<Pin> pins;
  auto pinned_bytes = [this](const BucketTable::PinnedValue& p) {
    rdma::MemoryRegion* mr = fabric_.FindRemote(rdma::RemoteKey{p.rkey});
    return AsString(mr->bytes().subspan(p.offset, p.len));
  };
  auto pins_on = [&pins](const LruModel::Item& item) {
    return std::any_of(pins.begin(), pins.end(), [&item](const Pin& p) {
      return p.key == item.key && p.cell == item.cell;
    });
  };

  for (int step = 0; step < 6000; ++step) {
    const std::string& key = keys[rng.NextBounded(keys.size())];
    std::vector<LruModel::Item>& list = model.ListFor(key);
    const int at = LruModel::Find(list, key);
    table.Prefetch(Bytes(key));  // a hint: moves no rank and no counter
    const uint64_t action = rng.NextBounded(100);
    if (action < 40) {
      // PUT: small values mostly, some up to 8 KiB.
      const size_t size = rng.NextBounded(4) == 0 ? rng.NextBounded(8193) : rng.NextBounded(65);
      std::string value(size, '\0');
      for (size_t i = 0; i < size; ++i) {
        value[i] = static_cast<char>('A' + (static_cast<size_t>(step) + i) % 50);
      }
      table.Put(Bytes(key), Bytes(value));
      if (at >= 0) {
        LruModel::Item& item = list[static_cast<size_t>(at)];
        if (pins_on(item)) {
          ++model.stats.cow_puts;
          item.cell = model.next_cell++;
        }
        item.value = value;
        LruModel::MoveToFront(list, at);
        ++model.stats.updates;
      } else {
        if (list.size() == BucketTable::kSlotsPerBucket) {
          list.pop_back();
          ++model.stats.evictions;
        }
        list.insert(list.begin(), LruModel::Item{key, value, model.next_cell++});
        ++model.stats.inserts;
      }
    } else if (action < 80) {
      // GET, or in pool mode sometimes a pinned GET that is kept a while.
      const bool pin = pool_mode && action < 55;
      std::optional<std::string> got;
      if (pin) {
        if (auto p = table.GetPinned(Bytes(key))) {
          got = pinned_bytes(*p);
          const uint64_t cell = at >= 0 ? list[static_cast<size_t>(at)].cell : 0;
          pins.push_back(Pin{std::move(*p), key, *got, cell});
        }
      } else if (auto v = table.Get(Bytes(key))) {
        got = AsString(*v);
      }
      if (at >= 0) {
        ASSERT_TRUE(got.has_value()) << "step " << step << " key " << key;
        EXPECT_EQ(*got, list[static_cast<size_t>(at)].value) << "step " << step;
        LruModel::MoveToFront(list, at);
        ++model.stats.hits;
      } else {
        EXPECT_FALSE(got.has_value()) << "step " << step << " key " << key;
        ++model.stats.misses;
      }
    } else if (action < 88) {
      EXPECT_EQ(table.Erase(Bytes(key)), at >= 0) << "step " << step;
      if (at >= 0) {
        list.erase(list.begin() + at);
        ++model.stats.erases;
      }
    } else if (action < 99) {
      // A pin drops; its bytes must not have changed while it was held.
      if (!pins.empty()) {
        const size_t i = rng.NextBounded(pins.size());
        EXPECT_EQ(pinned_bytes(pins[i].value), pins[i].bytes) << "step " << step;
        pins.erase(pins.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (rng.NextBounded(4) == 0) {
      table.Clear();
      for (auto& l : model.lists) {
        l.clear();
      }
    } else {
      // Snapshot round trip: the table's contents as the model has them, and
      // a fresh table loaded from the snapshot serves the same pairs. The
      // sweep itself touches no stats.
      const std::map<std::string, std::string> snap = SnapshotAll(table);
      std::map<std::string, std::string> want;
      for (const auto& l : model.lists) {
        for (const LruModel::Item& item : l) {
          want[item.key] = item.value;
        }
      }
      EXPECT_EQ(snap, want) << "step " << step;
      BucketTable copy = pool_mode ? BucketTable(buckets, node_) : BucketTable(buckets);
      for (const auto& [k, v] : snap) {
        copy.Put(Bytes(k), Bytes(v));
      }
      EXPECT_EQ(SnapshotAll(copy), snap) << "step " << step;
      EXPECT_EQ(copy.stats().evictions, 0u);
    }
    EXPECT_EQ(table.size(), model.size()) << "step " << step;
    ExpectStats(table.stats(), model.stats, step);
    if (HasFatalFailure() || HasFailure()) {
      return;
    }
  }
  EXPECT_GT(model.stats.evictions, 1000u);
  if (pool_mode) {
    EXPECT_GE(model.stats.cow_puts, 10u);
  }
  for (const Pin& p : pins) {
    EXPECT_EQ(pinned_bytes(p.value), p.bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBuckets, BucketTableEvictionOracleTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(size_t{1}, size_t{2}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<bool, size_t>>& param) {
      return std::string(std::get<0>(param.param) ? "pool" : "heap") + "_" +
             std::to_string(std::get<1>(param.param)) + "_buckets";
    });

// Property sweep: under heavy overfill the table never exceeds its slot
// capacity and keeps serving consistent data.
class BucketTableFillTest : public ::testing::TestWithParam<int> {};

TEST_P(BucketTableFillTest, CapacityBounded) {
  const int buckets = GetParam();
  BucketTable table(static_cast<size_t>(buckets));
  const size_t capacity = table.num_buckets() * BucketTable::kSlotsPerBucket;
  for (int i = 0; i < 5000; ++i) {
    table.Put(Bytes("key" + std::to_string(i)), Bytes("v" + std::to_string(i)));
    EXPECT_LE(table.size(), capacity);
  }
  // Anything still present must carry its own value.
  int present = 0;
  for (int i = 0; i < 5000; ++i) {
    auto v = table.Get(Bytes("key" + std::to_string(i)));
    if (v.has_value()) {
      ++present;
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(v->data()), v->size()),
                "v" + std::to_string(i));
    }
  }
  EXPECT_EQ(static_cast<size_t>(present), table.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BucketTableFillTest, ::testing::Values(1, 4, 64, 512));

}  // namespace
}  // namespace kv
