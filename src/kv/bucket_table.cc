#include "src/kv/bucket_table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>

#include "src/check/checker.h"
#include "src/explore/history.h"
#include "src/kv/common.h"
#include "src/rdma/fabric.h"

namespace kv {

namespace {

std::string_view KeyView(std::span<const std::byte> key) {
  return std::string_view(reinterpret_cast<const char*>(key.data()), key.size());
}

}  // namespace

BucketTable::BucketTable(size_t num_buckets) {
  if (num_buckets == 0) {
    throw std::invalid_argument("bucket table: need at least one bucket");
  }
  buckets_.resize(std::bit_ceil(num_buckets));
}

BucketTable::BucketTable(size_t num_buckets, rdma::Node& node) : BucketTable(num_buckets) {
  pool_ = mem::Pool::Shared(node);
  node_ = &node;
}

BucketTable::~BucketTable() { DropHandles(); }

uint32_t BucketTable::Arena::NewChunk(size_t bytes) {
  Chunk chunk(static_cast<std::byte*>(::operator new(bytes, kChunkAlign)));
  if (!free_chunks_.empty()) {
    const uint32_t idx = free_chunks_.back();
    free_chunks_.pop_back();
    chunks_[idx] = std::move(chunk);
    return idx;
  }
  if (chunks_.size() >= kMaxChunks) {
    throw std::length_error("bucket table: cell arena exhausted");
  }
  chunks_.push_back(std::move(chunk));
  return static_cast<uint32_t>(chunks_.size() - 1);
}

void BucketTable::Arena::Push(uint32_t ref, size_t cls) {
  uint32_t& head = free_heads_[cls];
  std::memcpy(At(ref), &head, sizeof(head));
  head = ref;
  class_bits_[cls / 64] |= uint64_t{1} << (cls % 64);
  summary_bits_[cls / 64 / 64] |= uint64_t{1} << (cls / 64 % 64);
}

uint32_t BucketTable::Arena::Pop(size_t cls) {
  uint32_t& head = free_heads_[cls];
  const uint32_t ref = head;
  std::memcpy(&head, At(ref), sizeof(head));
  if (head == kNone && (class_bits_[cls / 64] &= ~(uint64_t{1} << (cls % 64))) == 0) {
    summary_bits_[cls / 64 / 64] &= ~(uint64_t{1} << (cls / 64 % 64));
  }
  return ref;
}

size_t BucketTable::Arena::FirstFree(size_t cls) const {
  const size_t word = cls / 64;
  if (const uint64_t bits = class_bits_[word] & (~uint64_t{0} << (cls % 64)); bits != 0) {
    return word * 64 + static_cast<size_t>(std::countr_zero(bits));
  }
  // The next non-empty word after `word`, found through the summary.
  for (size_t s = (word + 1) / 64; s < kSummaryWords; ++s) {
    uint64_t summary = summary_bits_[s];
    if (s == (word + 1) / 64) {
      summary &= ~uint64_t{0} << ((word + 1) % 64);
    }
    if (summary != 0) {
      const size_t next = s * 64 + static_cast<size_t>(std::countr_zero(summary));
      return next * 64 + static_cast<size_t>(std::countr_zero(class_bits_[next]));
    }
  }
  return kClasses;
}

uint32_t BucketTable::Arena::Alloc(size_t bytes) {
  if (bytes > kChunkBytes) {
    return NewChunk(bytes) << kOffsetBits;
  }
  const size_t cls = bytes / kAlign;
  if (const size_t from = FirstFree(cls); from != kClasses) {
    const uint32_t ref = Pop(from);
    if (from > cls) {
      // Cells never cross a chunk, so the rest stays inside this one.
      Push(ref + static_cast<uint32_t>(cls), from - cls);
    }
    return ref;
  }
  if (kChunkBytes - bump_offset_ < bytes) {
    if (bump_offset_ < kChunkBytes) {
      Push(BumpRef(), (kChunkBytes - bump_offset_) / kAlign);
    }
    bump_chunk_ = NewChunk(kChunkBytes);
    bump_offset_ = 0;
  }
  const uint32_t ref = BumpRef();
  bump_offset_ += bytes;
  return ref;
}

void BucketTable::Arena::Free(uint32_t ref, size_t bytes) {
  if (bytes > kChunkBytes) {
    const uint32_t idx = ref >> kOffsetBits;
    chunks_[idx].reset();
    free_chunks_.push_back(idx);
    return;
  }
  Push(ref, bytes / kAlign);
}

void BucketTable::Arena::Clear() {
  chunks_.clear();
  free_chunks_.clear();
  std::fill(free_heads_.begin(), free_heads_.end(), kNone);
  std::fill(class_bits_.begin(), class_bits_.end(), 0);
  summary_bits_.fill(0);
  bump_offset_ = kChunkBytes;
}

void BucketTable::NoteCpuStore(const ValueCell& cell) {
  if (cell.len == 0 || node_ == nullptr) {
    return;
  }
  if (check::FabricChecker* checker = node_->fabric()->checker()) {
    checker->OnCpuStore(cell.span.rkey(), cell.span.offset, cell.len);
  }
}

BucketTable::ValueHandle BucketTable::MakeValueCell(std::span<const std::byte> value,
                                                   uint32_t epoch) {
  auto cell = std::make_shared<ValueCell>();
  cell->pool = pool_;
  cell->span = pool_->Alloc(value.size());
  cell->len = static_cast<uint32_t>(value.size());
  cell->epoch = epoch;
  rdma::CopyBytes(cell->bytes(), value);
  NoteCpuStore(*cell);
  return cell;
}

void BucketTable::Touch(Bucket& bucket, int idx) {
  const uint8_t old_rank = bucket.slots[static_cast<size_t>(idx)].lru;
  for (Slot& slot : bucket.slots) {
    if (slot.used != 0 && slot.lru < old_rank) {
      ++slot.lru;
    }
  }
  bucket.slots[static_cast<size_t>(idx)].lru = 0;
}

int BucketTable::FindSlot(const Bucket& bucket, uint16_t tag,
                          std::span<const std::byte> key) const {
  for (int i = 0; i < kSlotsPerBucket; ++i) {
    const Slot& slot = bucket.slots[static_cast<size_t>(i)];
    if (slot.used == 0 || slot.tag != tag) {
      continue;
    }
    const std::byte* stored = Key(slot.entry);
    if (Header(slot.entry).key_len == key.size() &&
        std::equal(key.begin(), key.end(), stored)) {
      return i;
    }
  }
  return -1;
}

uint32_t BucketTable::NewCell(std::span<const std::byte> key, std::span<const std::byte> value) {
  // Pool mode draws the span first, so a throwing Pool::Alloc leaves no cell.
  ValueHandle handle = pool_ ? MakeValueCell(value, 0) : nullptr;
  const size_t capacity = pool_ ? sizeof(ValueHandle) : Arena::RoundUp(value.size());
  const uint32_t ref = arena_.Alloc(ValueOffset(key.size()) + capacity);
  new (arena_.At(ref)) CellHeader{
      static_cast<uint32_t>(key.size()),
      static_cast<uint32_t>(pool_ ? capacity : value.size()),
      static_cast<uint32_t>(capacity),
  };
  rdma::CopyBytes(std::span<std::byte>(Key(ref), key.size()), key);
  if (pool_) {
    new (Value(ref)) ValueHandle(std::move(handle));
  } else {
    rdma::CopyBytes(std::span<std::byte>(Value(ref), value.size()), value);
  }
  return ref;
}

void BucketTable::FreeCell(uint32_t ref) {
  if (pool_) {
    // Deferred free: if a zero-copy pin still holds the span, it returns to
    // the pool when that pin drops, not here.
    std::destroy_at(&Handle(ref));
  }
  const CellHeader& header = Header(ref);
  arena_.Free(ref, ValueOffset(header.key_len) + header.capacity);
}

void BucketTable::DropHandles() {
  if (!pool_) {
    return;
  }
  for (const Bucket& bucket : buckets_) {
    for (const Slot& slot : bucket.slots) {
      if (slot.used != 0) {
        std::destroy_at(&Handle(slot.entry));
      }
    }
  }
}

std::optional<std::span<const std::byte>> BucketTable::Get(std::span<const std::byte> key) {
  if (recorder_ != nullptr) {
    recorder_->OnApply(explore::OpKind::kGet, KeyView(key));
  }
  const uint64_t hash = HashBytes(key);
  Bucket& bucket = buckets_[BucketIndex(hash)];
  const int idx = FindSlot(bucket, Tag(hash), key);
  if (idx < 0) {
    ++stats_.misses;
    return std::nullopt;
  }
  Touch(bucket, idx);
  ++stats_.hits;
  const uint32_t ref = bucket.slots[static_cast<size_t>(idx)].entry;
  if (pool_) {
    const ValueCell& cell = *Handle(ref);
    return std::span<const std::byte>(cell.bytes().data(), cell.len);
  }
  return std::span<const std::byte>(Value(ref), Header(ref).value_len);
}

std::optional<BucketTable::PinnedValue> BucketTable::GetPinned(std::span<const std::byte> key) {
  if (!pool_) {
    throw std::logic_error("bucket table: GetPinned requires a pool-backed table");
  }
  if (recorder_ != nullptr) {
    recorder_->OnApply(explore::OpKind::kGet, KeyView(key));
  }
  const uint64_t hash = HashBytes(key);
  Bucket& bucket = buckets_[BucketIndex(hash)];
  const int idx = FindSlot(bucket, Tag(hash), key);
  if (idx < 0) {
    ++stats_.misses;
    return std::nullopt;
  }
  Touch(bucket, idx);
  ++stats_.hits;
  const ValueHandle& cell = Handle(bucket.slots[static_cast<size_t>(idx)].entry);
  return PinnedValue{cell->span.rkey(), cell->span.offset, cell->len, cell->epoch,
                     std::shared_ptr<const void>(cell)};
}

void BucketTable::Put(std::span<const std::byte> key, std::span<const std::byte> value) {
  if (recorder_ != nullptr) {
    recorder_->OnApply(explore::OpKind::kPut, KeyView(key));
  }
  const uint64_t hash = HashBytes(key);
  Bucket& bucket = buckets_[BucketIndex(hash)];
  const uint16_t tag = Tag(hash);

  int idx = FindSlot(bucket, tag, key);
  if (idx >= 0) {
    Slot& slot = bucket.slots[static_cast<size_t>(idx)];
    if (pool_) {
      // Overwrite in place only when no zero-copy pin could still READ the
      // old bytes (and the new value fits the reserved span); otherwise
      // copy-on-write into a fresh span and let the pin's release free the
      // old one.
      ValueHandle& cell = Handle(slot.entry);
      const bool pinned = cell.use_count() > 1;
      if (value.size() <= cell->span.size && (!pinned || unsafe_inplace_put_)) {
        cell->len = static_cast<uint32_t>(value.size());
        rdma::CopyBytes(cell->bytes(), value);
        ++cell->epoch;
        NoteCpuStore(*cell);
      } else {
        if (pinned) {
          ++stats_.cow_puts;
        }
        cell = MakeValueCell(value, cell->epoch + 1);
      }
    } else if (CellHeader& header = Header(slot.entry);
               value.size() <= header.capacity &&
               2 * Arena::RoundUp(value.size()) >= header.capacity) {
      // Overwrite in place: the value fits and fills at least half the cell.
      header.value_len = static_cast<uint32_t>(value.size());
      rdma::CopyBytes(std::span<std::byte>(Value(slot.entry), value.size()), value);
    } else {
      // Outgrew the cell, or would leave most of it idle: move to a
      // right-sized one and free the old cell for a later value.
      const uint32_t old = slot.entry;
      slot.entry = NewCell(key, value);
      FreeCell(old);
    }
    Touch(bucket, idx);
    ++stats_.updates;
    return;
  }

  // Free slot, or strict-LRU eviction within the bucket.
  int victim = -1;
  for (int i = 0; i < kSlotsPerBucket; ++i) {
    if (bucket.slots[static_cast<size_t>(i)].used == 0) {
      victim = i;
      break;
    }
  }
  if (victim < 0) {
    uint8_t oldest = 0;
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      if (bucket.slots[static_cast<size_t>(i)].lru >= oldest) {
        oldest = bucket.slots[static_cast<size_t>(i)].lru;
        victim = i;
      }
    }
    // The victim held the oldest rank, kSlotsPerBucket - 1, which is the
    // rank a fresh slot starts from below.
    FreeCell(bucket.slots[static_cast<size_t>(victim)].entry);
    bucket.slots[static_cast<size_t>(victim)].used = 0;
    --size_;
    ++stats_.evictions;
  }

  // A throwing allocation leaves the slot free and the ranks dense.
  Slot& slot = bucket.slots[static_cast<size_t>(victim)];
  slot.entry = NewCell(key, value);
  slot.tag = tag;
  slot.used = 1;
  // Fresh slot starts as oldest; Touch below promotes it.
  slot.lru = kSlotsPerBucket - 1;
  Touch(bucket, victim);
  ++size_;
  ++stats_.inserts;
}

size_t BucketTable::SnapshotChunk(size_t cursor, size_t max_buckets,
                                  std::vector<SnapshotItem>* out) const {
  const size_t end = std::min(cursor + max_buckets, buckets_.size());
  for (size_t b = cursor; b < end; ++b) {
    for (const Slot& slot : buckets_[b].slots) {
      if (slot.used == 0) {
        continue;
      }
      SnapshotItem item;
      const std::byte* key = Key(slot.entry);
      item.key.assign(key, key + Header(slot.entry).key_len);
      if (pool_) {
        const std::span<std::byte> bytes = Handle(slot.entry)->bytes();
        item.value.assign(bytes.begin(), bytes.end());
      } else {
        const std::byte* value = Value(slot.entry);
        item.value.assign(value, value + Header(slot.entry).value_len);
      }
      out->push_back(std::move(item));
    }
  }
  return end;
}

void BucketTable::Clear() {
  DropHandles();
  for (Bucket& bucket : buckets_) {
    bucket = Bucket{};
  }
  arena_.Clear();
  size_ = 0;
}

void BucketTable::Prefetch(std::span<const std::byte> key) const {
  __builtin_prefetch(&buckets_[BucketIndex(HashBytes(key))]);
}

bool BucketTable::Erase(std::span<const std::byte> key) {
  if (recorder_ != nullptr) {
    recorder_->OnApply(explore::OpKind::kDelete, KeyView(key));
  }
  const uint64_t hash = HashBytes(key);
  Bucket& bucket = buckets_[BucketIndex(hash)];
  const int idx = FindSlot(bucket, Tag(hash), key);
  if (idx < 0) {
    return false;
  }
  Slot& slot = bucket.slots[static_cast<size_t>(idx)];
  FreeCell(slot.entry);
  // Keep remaining ranks dense: demote nothing, just age out the hole.
  const uint8_t gone_rank = slot.lru;
  slot = Slot{};
  for (Slot& s : bucket.slots) {
    if (s.used != 0 && s.lru > gone_rank) {
      --s.lru;
    }
  }
  --size_;
  ++stats_.erases;
  return true;
}

}  // namespace kv
