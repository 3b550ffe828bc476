// Heap allocations on BucketTable's steady-state paths. This binary replaces
// the global operator new (plain and aligned) to count every allocation, so
// it pins that a warmed heap-mode table serves a GET, an overwrite that fits
// the key's cell, and an erase followed by a same-size re-insert from the
// cells it already owns, and that a value shrunk below half its cell moves
// out and leaves the cell to later large values.

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/kv/bucket_table.h"

namespace {
size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  ++g_allocations;
  const size_t a = static_cast<size_t>(align);
  if (void* p = std::aligned_alloc(a, (bytes + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*bytes*/) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t /*align*/) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*bytes*/, std::align_val_t /*align*/) noexcept {
  std::free(p);
}

namespace kv {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

TEST(BucketTableAllocTest, WarmHeapModeOpsAllocateNothing) {
  BucketTable table(4096);
  std::vector<std::vector<std::byte>> keys;
  // 2048 cells of 64 bytes span two arena chunks, so a table that did not
  // reuse freed cells would have to allocate a chunk below.
  for (int i = 0; i < 2048; ++i) {
    std::string key = "key-" + std::to_string(i);
    key.resize(16, '.');
    keys.push_back(Bytes(key));
  }
  const std::vector<std::byte> value(32, std::byte{'v'});
  const std::vector<std::byte> smaller(20, std::byte{'s'});
  // Warm up: every key stored, and one erase/re-insert so the table has
  // freed a cell before.
  for (const auto& key : keys) {
    table.Put(key, value);
  }
  ASSERT_TRUE(table.Erase(keys[0]));
  table.Put(keys[0], value);

  const size_t before = g_allocations;
  for (const auto& key : keys) {
    ASSERT_TRUE(table.Get(key).has_value());
  }
  EXPECT_EQ(g_allocations - before, 0u) << "GET";

  const size_t before_put = g_allocations;
  for (const auto& key : keys) {
    table.Put(key, value);    // same size
    table.Put(key, smaller);  // smaller: stays in the cell
  }
  EXPECT_EQ(g_allocations - before_put, 0u) << "overwrite that fits";

  const size_t before_erase = g_allocations;
  for (const auto& key : keys) {
    ASSERT_TRUE(table.Erase(key));
    table.Put(key, value);
  }
  EXPECT_EQ(g_allocations - before_erase, 0u) << "erase + same-size re-insert";
  EXPECT_EQ(table.size(), keys.size());
  EXPECT_EQ(table.stats().evictions, 0u);
}

// A value that shrinks below half its cell moves to a right-sized cell, so
// the capacity it leaves behind serves later large values without new arena
// chunks.
TEST(BucketTableAllocTest, ShrunkValuesReleaseTheirCells) {
  BucketTable table(4096);
  std::vector<std::vector<std::byte>> keys;
  for (int i = 0; i < 768; ++i) {
    std::string key = "key-" + std::to_string(i);
    key.resize(16, '.');
    keys.push_back(Bytes(key));
  }
  const std::vector<std::byte> large(8192, std::byte{'L'});
  const std::vector<std::byte> small(32, std::byte{'s'});
  for (size_t i = 0; i < 512; ++i) {
    table.Put(keys[i], large);
  }
  for (size_t i = 0; i < 512; ++i) {
    table.Put(keys[i], small);
  }

  const size_t before = g_allocations;
  for (size_t i = 512; i < keys.size(); ++i) {
    table.Put(keys[i], large);
  }
  EXPECT_EQ(g_allocations - before, 0u) << "8 KiB inserts after the shrink";
  EXPECT_EQ(table.size(), keys.size());
  EXPECT_EQ(table.stats().evictions, 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto v = table.Get(keys[i]);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(v->size(), i < 512 ? small.size() : large.size()) << i;
  }
}

}  // namespace
}  // namespace kv
