// Jakiro's in-memory key-value structure (paper Section 4.1):
// a fixed array of buckets, eight 8-byte slots per bucket (one cache line),
// strict per-bucket LRU eviction, and EREW partitioning — each server
// thread owns one BucketTable instance and nobody else touches it.
//
// Each key lives in one cell of a per-table host arena, laid out as
// [header: key length, value length, capacity][key][value], and the slot
// names the cell. A lookup compares the key and reads the value in the same
// cell, so a GET touches one cache line past its bucket for small values.
// In heap mode a cell's value capacity follows the live value: a PUT
// overwrites in place while the value fits and fills at least half the
// capacity (2 * Arena::RoundUp(len) >= capacity); otherwise the key moves to
// a cell of exactly RoundUp(len) bytes and the old cell returns to the free
// lists. So a cell never reserves more than twice its value, and a key that
// shrinks from 8 KiB to 32 B gives its 8 KiB back for later values.
//
// Two storage modes, which differ only in where the value bytes live. Heap
// mode (the one-argument ctor): the value sits inline in the cell, and GETs
// copy it through the response ring. Pool mode (the two-argument ctor):
// values live in registered slabs drawn from the node's shared mem::Pool and
// the cell holds a handle to that span, so a GET handler can answer
// zero-copy — GetPinned hands out the entry's (rkey, offset, len, epoch)
// plus a pin that keeps the registered bytes alive until the client's fetch
// is proven consumed. A PUT that lands while an entry is pinned
// copies-on-write into a fresh span (the old span is freed when the last pin
// drops), never overwriting bytes a client may still READ; docs/memory.md
// spells out the lifetime rules.

#ifndef SRC_KV_BUCKET_TABLE_H_
#define SRC_KV_BUCKET_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "src/mem/pool.h"
#include "src/rdma/node.h"

namespace explore {
class HistoryRecorder;
}

namespace kv {

class BucketTable {
 public:
  static constexpr int kSlotsPerBucket = 8;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t updates = 0;
    uint64_t evictions = 0;
    uint64_t erases = 0;
    // Pool mode: PUTs that hit a pinned entry and had to allocate a fresh
    // cell instead of overwriting in place (the zero-copy safety path).
    uint64_t cow_puts = 0;
  };

  // A pinned view of a pool-backed entry, for zero-copy GET responses. The
  // coordinates name the value inside the node's registered memory; `pin`
  // keeps the cell (and its span) alive even if a later PUT or eviction
  // replaces the entry — the span returns to the pool when the last pin
  // drops. `epoch` counts overwrites of the key, so a descriptor can be
  // told apart from a reused cell.
  struct PinnedValue {
    uint32_t rkey = 0;
    size_t offset = 0;
    uint32_t len = 0;
    uint32_t epoch = 0;
    std::shared_ptr<const void> pin;
  };

  // `num_buckets` is rounded up to a power of two. Heap mode: values inline
  // in their cells, GetPinned unavailable.
  explicit BucketTable(size_t num_buckets);

  // Pool mode: values live in registered slabs from `node`'s shared
  // mem::Pool (created on first use), enabling GetPinned / zero-copy GET.
  BucketTable(size_t num_buckets, rdma::Node& node);

  BucketTable(const BucketTable&) = delete;
  BucketTable& operator=(const BucketTable&) = delete;
  BucketTable(BucketTable&&) = default;
  ~BucketTable();

  // Returns a view of the stored value (valid until the next mutation) and
  // refreshes the entry's LRU position.
  std::optional<std::span<const std::byte>> Get(std::span<const std::byte> key);

  // Pool mode only (throws std::logic_error otherwise): like Get — refreshes
  // LRU, counts hit/miss — but returns the entry's registered coordinates
  // plus a pin instead of a byte view.
  std::optional<PinnedValue> GetPinned(std::span<const std::byte> key);

  // Inserts or overwrites. When the bucket is full, the least recently used
  // slot in that bucket is evicted (strict LRU, paper Section 4.1).
  void Put(std::span<const std::byte> key, std::span<const std::byte> value);

  // Starts loading the bucket `key` hashes to into the host cache, for a
  // lookup expected soon. A host-side hint: no table state or stats change.
  void Prefetch(std::span<const std::byte> key) const;

  // Removes the key; returns whether it was present.
  bool Erase(std::span<const std::byte> key);

  // Drops every entry (stats and mode are kept). Used when a backup
  // re-bootstraps: an aborted snapshot transfer leaves partial state that a
  // fresh sweep must not merge with. Pool-mode cells honor the usual
  // deferred-free rule — a pinned cell's span returns to the pool when its
  // last pin drops.
  void Clear();

  // One live (key, value) pair copied out of the table by SnapshotChunk.
  struct SnapshotItem {
    std::vector<std::byte> key;
    std::vector<std::byte> value;
  };

  // Cursor-driven snapshot sweep for backup bootstrap (docs/replication.md):
  // appends every live pair in buckets [cursor, cursor + max_buckets) to
  // `out` and returns the next cursor (num_buckets() = sweep complete).
  // Values are copied, so the chunk stays stable while it is shipped; the
  // sweep does not touch LRU state or hit/miss counters, and mutations
  // between chunks are legal — the replication log replays whatever raced
  // the sweep (snapshot-then-tail, not a frozen table).
  size_t SnapshotChunk(size_t cursor, size_t max_buckets,
                       std::vector<SnapshotItem>* out) const;

  size_t size() const { return size_; }
  size_t num_buckets() const { return buckets_.size(); }
  const Stats& stats() const { return stats_; }
  bool pool_backed() const { return pool_ != nullptr; }

  // TEST ONLY: disables the copy-on-write pin check, modelling a buggy store
  // that overwrites a pinned entry in place. Exists so the race-detector
  // corpus can prove the checker catches exactly that bug
  // (tests/check/ zero-copy reuse case); never set in production paths.
  void set_unsafe_inplace_put(bool unsafe) { unsafe_inplace_put_ = unsafe; }

  // Attaches (or detaches, with nullptr) a history recorder: Get/GetPinned/
  // Put/Erase report store-side apply events (explore::ApplyEvent) used to
  // diagnose linearizability failures. The recorder must outlive this table
  // or be detached first.
  void set_history_recorder(explore::HistoryRecorder* recorder) { recorder_ = recorder; }

 private:
  // 8 bytes, like the paper's slot: a tag for fast rejection, the LRU rank
  // within the bucket, and the arena reference of the entry's cell.
  struct Slot {
    uint16_t tag = 0;
    uint8_t lru = 0;   // 0 = most recent among used slots
    uint8_t used = 0;
    uint32_t entry = 0;
  };
  static_assert(sizeof(Slot) == 8, "slot must stay 8 bytes (bucket = cache line)");

  struct Bucket {
    std::array<Slot, kSlotsPerBucket> slots;
  };

  // Pool mode value storage: one registered span plus the reuse epoch. It is
  // shared between the table (a ValueHandle in the key's cell) and any
  // outstanding zero-copy pins; the dtor returns the span to the pool, so a
  // replaced span is freed exactly when the last pin drops (deferred free,
  // never while a client may READ).
  struct ValueCell {
    std::shared_ptr<mem::Pool> pool;
    mem::Span span;
    uint32_t len = 0;    // live bytes (<= span.size after an in-place shrink)
    uint32_t epoch = 0;  // overwrite count for this key
    ~ValueCell() {
      if (span.valid()) {
        pool->Free(span);
      }
    }
    std::span<std::byte> bytes() const { return span.mr->bytes().subspan(span.offset, len); }
  };
  // What a pool-mode cell stores in place of the value bytes.
  using ValueHandle = std::shared_ptr<ValueCell>;

  // Fixed-size chunks carved into 8-byte-aligned cells; a cell is named by a
  // 32-bit reference (chunk index, offset / 8). Free cells wait in lists
  // keyed by exact size. An allocation takes the smallest free cell that
  // fits and returns what it does not use to the list of that size; only
  // when none fits does it cut a new cell from the current chunk, whose
  // tail joins the free lists when a cell no longer fits it. So chunk tails
  // and cells that a growing value left behind serve later, smaller cells.
  // Chunks are small so that malloc recycles their pages across the tables
  // a process builds; a cell larger than a chunk gets a chunk of its own,
  // released when the cell is freed.
  class Arena {
   public:
    static constexpr size_t kChunkBytes = size_t{64} << 10;
    static constexpr size_t kAlign = 8;

    static constexpr size_t RoundUp(size_t bytes) { return (bytes + kAlign - 1) & ~(kAlign - 1); }

    // `bytes` must be a multiple of kAlign.
    uint32_t Alloc(size_t bytes);
    void Free(uint32_t ref, size_t bytes);
    void Clear();

    std::byte* At(uint32_t ref) const {
      return chunks_[ref >> kOffsetBits].get() + (size_t{ref & kOffsetMask} * kAlign);
    }

   private:
    static constexpr int kOffsetBits = 13;  // kChunkBytes / kAlign cells
    static constexpr uint32_t kOffsetMask = (uint32_t{1} << kOffsetBits) - 1;
    // Chunk indices stop short of 2^19 - 1 so no cell reference is kNone.
    static constexpr size_t kMaxChunks = (size_t{1} << (32 - kOffsetBits)) - 1;
    static constexpr uint32_t kNone = UINT32_MAX;
    static constexpr std::align_val_t kChunkAlign{64};  // cache-line aligned
    // Free-list classes are sizes / kAlign, up to a whole chunk.
    static constexpr size_t kClasses = kChunkBytes / kAlign + 1;
    static constexpr size_t kClassWords = (kClasses + 63) / 64;
    static constexpr size_t kSummaryWords = (kClassWords + 63) / 64;

    struct ChunkDelete {
      void operator()(std::byte* p) const { ::operator delete(p, kChunkAlign); }
    };
    using Chunk = std::unique_ptr<std::byte[], ChunkDelete>;

    uint32_t NewChunk(size_t bytes);
    uint32_t BumpRef() const {
      return (bump_chunk_ << kOffsetBits) | static_cast<uint32_t>(bump_offset_ / kAlign);
    }
    void Push(uint32_t ref, size_t cls);
    uint32_t Pop(size_t cls);
    // The smallest class >= `cls` with a free cell, or kClasses.
    size_t FirstFree(size_t cls) const;

    std::vector<Chunk> chunks_;
    std::vector<uint32_t> free_chunks_;  // indices of released oversize chunks
    // By class: the first free cell; each free cell stores the next one's
    // reference in its first bytes.
    std::vector<uint32_t> free_heads_ = std::vector<uint32_t>(kClasses, kNone);
    // Bit c: class c has a free cell. Summary bit w: class_bits_[w] != 0.
    std::vector<uint64_t> class_bits_ = std::vector<uint64_t>(kClassWords);
    std::array<uint64_t, kSummaryWords> summary_bits_{};
    // The chunk new cells are cut from when no free cell fits.
    uint32_t bump_chunk_ = 0;
    size_t bump_offset_ = kChunkBytes;  // no such chunk yet
  };

  // The head of every cell. The value region starts at ValueOffset(key_len)
  // (8-aligned, so a pool-mode ValueHandle can sit there) and reserves
  // `capacity` bytes; `value_len` of them are live.
  struct CellHeader {
    uint32_t key_len = 0;
    uint32_t value_len = 0;
    uint32_t capacity = 0;
  };
  static constexpr size_t ValueOffset(size_t key_len) {
    return Arena::RoundUp(sizeof(CellHeader) + key_len);
  }

  size_t BucketIndex(uint64_t hash) const { return hash & (buckets_.size() - 1); }
  static uint16_t Tag(uint64_t hash) { return static_cast<uint16_t>(hash >> 48); }

  // Moves slot `idx` to LRU rank 0, shifting younger slots down.
  void Touch(Bucket& bucket, int idx);

  int FindSlot(const Bucket& bucket, uint16_t tag, std::span<const std::byte> key) const;

  CellHeader& Header(uint32_t ref) const {
    return *std::launder(reinterpret_cast<CellHeader*>(arena_.At(ref)));
  }
  std::byte* Key(uint32_t ref) const { return arena_.At(ref) + sizeof(CellHeader); }
  std::byte* Value(uint32_t ref) const { return arena_.At(ref) + ValueOffset(Header(ref).key_len); }
  ValueHandle& Handle(uint32_t ref) const {
    return *std::launder(reinterpret_cast<ValueHandle*>(Value(ref)));
  }

  // Allocates a cell for `key` -> `value` (pool mode: a fresh span with
  // reuse epoch 0) and returns its reference.
  uint32_t NewCell(std::span<const std::byte> key, std::span<const std::byte> value);
  // Returns the cell to the arena; pool mode drops the table's reference to
  // the value span (deferred free while a zero-copy pin holds it).
  void FreeCell(uint32_t ref);
  // Pool mode: drops every live cell's ValueHandle (Clear and the dtor).
  void DropHandles();

  // Pool mode: allocates a registered value span, copies `value` in, and
  // reports the CPU store to the fabric's race checker (the bytes stay
  // "dirty" until a zero-copy send republishes them).
  ValueHandle MakeValueCell(std::span<const std::byte> value, uint32_t epoch);
  void NoteCpuStore(const ValueCell& cell);

  std::vector<Bucket> buckets_;
  Arena arena_;
  size_t size_ = 0;
  Stats stats_;
  std::shared_ptr<mem::Pool> pool_;  // null = heap mode
  rdma::Node* node_ = nullptr;
  bool unsafe_inplace_put_ = false;
  explore::HistoryRecorder* recorder_ = nullptr;
};

}  // namespace kv

#endif  // SRC_KV_BUCKET_TABLE_H_
