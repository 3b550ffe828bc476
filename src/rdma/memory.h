// Registered memory regions.
//
// A MemoryRegion owns real bytes. One-sided operations copy actual data
// between regions, so everything layered above (headers, checksums, hash
// buckets) behaves exactly as it would on real hardware — including torn
// reads when a responder mutates a region between simulated instants.
//
// The bytes come from a private anonymous mapping, so they read as zero and
// a host page becomes resident only when the simulation first writes it. A
// node may register a 16 MiB pool arena and touch a few KiB of it; the
// simulated registration (Fabric::RegisteredBytes) still counts every byte.

#ifndef SRC_RDMA_MEMORY_H_
#define SRC_RDMA_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include "src/rdma/types.h"
#include "src/sim/poller.h"

namespace rdma {

class Node;

// The one checked byte-copy every registered-memory path funnels through
// (region accessors, rfp staging, kv entry moves). Two guarantees memcpy
// alone does not give:
//  * zero-length spans are valid no-ops even when they carry a null data
//    pointer (empty messages / empty values);
//  * overlapping src/dst throws instead of silently invoking UB — staging
//    buffers and registered entries never legitimately alias, so an overlap
//    is always a caller bug worth failing loudly on.
// The spans must be the same length; length mismatch is likewise a bug.
inline void CopyBytes(std::span<std::byte> dst, std::span<const std::byte> src) {
  if (dst.size() != src.size()) {
    throw std::invalid_argument("rdma::CopyBytes: src/dst length mismatch");
  }
  if (src.empty()) return;
  const std::byte* s = src.data();
  const std::byte* d = dst.data();
  // std::less gives the total pointer order the raw < lacks across objects.
  const bool disjoint = std::less_equal<const std::byte*>{}(s + src.size(), d) ||
                        std::less_equal<const std::byte*>{}(d + dst.size(), s);
  if (!disjoint) {
    throw std::invalid_argument("rdma::CopyBytes: overlapping spans");
  }
  std::memcpy(dst.data(), s, src.size());
}

class MemoryRegion {
 public:
  MemoryRegion(Node* node, uint32_t lkey, uint32_t rkey, size_t size, uint32_t access)
      : node_(node), lkey_(lkey), rkey_(rkey), access_(access), size_(size), data_(Map(size)) {}

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  Node* node() const { return node_; }
  uint32_t lkey() const { return lkey_; }
  RemoteKey remote_key() const { return RemoteKey{rkey_}; }
  size_t size() const { return size_; }
  uint32_t access() const { return access_; }

  bool AllowsRemoteRead() const { return (access_ & kAccessRemoteRead) != 0; }
  bool AllowsRemoteWrite() const { return (access_ & kAccessRemoteWrite) != 0; }

  std::span<std::byte> bytes() { return {data_.get(), size_}; }
  std::span<const std::byte> bytes() const { return {data_.get(), size_}; }

  bool InBounds(size_t offset, size_t len) const {
    return offset <= size_ && len <= size_ - offset;
  }

  // Local typed accessors (bounds are the caller's responsibility after an
  // InBounds check; they assert in debug builds via span).
  template <typename T>
  T Load(size_t offset) const {
    T value;
    std::memcpy(&value, data_.get() + offset, sizeof(T));
    return value;
  }

  template <typename T>
  void Store(size_t offset, const T& value) {
    std::memcpy(data_.get() + offset, &value, sizeof(T));
    if (!watches_.empty()) {
      Touched(offset, sizeof(T));
    }
  }

  void WriteBytes(size_t offset, std::span<const std::byte> src) {
    CopyBytes(bytes().subspan(offset, src.size()), src);
    if (!watches_.empty()) {
      Touched(offset, src.size());
    }
  }

  // Wakes `poller` on every write that overlaps [offset, offset + len) until
  // Unwatch(poller): a parked loop polling those bytes (sim/poller.h).
  void Watch(size_t offset, size_t len, sim::Poller* poller) {
    watches_.push_back(WatchRange{offset, len, poller});
  }
  void Unwatch(sim::Poller* poller) {
    for (size_t i = 0; i < watches_.size(); ++i) {
      if (watches_[i].poller == poller) {
        watches_[i] = watches_.back();
        watches_.pop_back();
        return;
      }
    }
  }

  // Store() and WriteBytes() call this; a write through bytes() must too.
  void Touched(size_t offset, size_t len) {
    for (const WatchRange& w : watches_) {
      if (offset < w.offset + w.len && w.offset < offset + len) {
        w.poller->Wake();
      }
    }
  }

  void ReadBytes(size_t offset, std::span<std::byte> dst) const {
    CopyBytes(dst, bytes().subspan(offset, dst.size()));
  }

 private:
  // Unmaps the whole page-rounded mapping. Under ASan the slack past `size`
  // is poisoned while mapped, so an overrun of the region still traps; it is
  // unpoisoned first, since a later mapping may reuse the addresses.
  struct Unmap {
    size_t size;
    size_t mapped;
    void operator()(std::byte* p) const {
      ASAN_UNPOISON_MEMORY_REGION(p + size, mapped - size);
      ::munmap(p, mapped);
    }
  };
  using Mapping = std::unique_ptr<std::byte[], Unmap>;

  static Mapping Map(size_t size) {
    if (size == 0) {  // mmap rejects an empty mapping
      return Mapping(nullptr, Unmap{0, 0});
    }
    const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t mapped = (size + page - 1) / page * page;
    void* p = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    auto* bytes = static_cast<std::byte*>(p);
    ASAN_POISON_MEMORY_REGION(bytes + size, mapped - size);
    return Mapping(bytes, Unmap{size, mapped});
  }

  Node* node_;
  uint32_t lkey_;
  uint32_t rkey_;
  uint32_t access_;
  size_t size_;
  Mapping data_;
  struct WatchRange {
    size_t offset;
    size_t len;
    sim::Poller* poller;
  };
  std::vector<WatchRange> watches_;
};

}  // namespace rdma

#endif  // SRC_RDMA_MEMORY_H_
