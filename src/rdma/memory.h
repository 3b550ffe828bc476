// Registered memory regions.
//
// A MemoryRegion owns real bytes. One-sided operations copy actual data
// between regions, so everything layered above (headers, checksums, hash
// buckets) behaves exactly as it would on real hardware — including torn
// reads when a responder mutates a region between simulated instants.

#ifndef SRC_RDMA_MEMORY_H_
#define SRC_RDMA_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

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
      : node_(node), lkey_(lkey), rkey_(rkey), access_(access), data_(size) {}

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  Node* node() const { return node_; }
  uint32_t lkey() const { return lkey_; }
  RemoteKey remote_key() const { return RemoteKey{rkey_}; }
  size_t size() const { return data_.size(); }
  uint32_t access() const { return access_; }

  bool AllowsRemoteRead() const { return (access_ & kAccessRemoteRead) != 0; }
  bool AllowsRemoteWrite() const { return (access_ & kAccessRemoteWrite) != 0; }

  std::span<std::byte> bytes() { return data_; }
  std::span<const std::byte> bytes() const { return data_; }

  bool InBounds(size_t offset, size_t len) const {
    return offset <= data_.size() && len <= data_.size() - offset;
  }

  // Local typed accessors (bounds are the caller's responsibility after an
  // InBounds check; they assert in debug builds via span).
  template <typename T>
  T Load(size_t offset) const {
    T value;
    std::memcpy(&value, data_.data() + offset, sizeof(T));
    return value;
  }

  template <typename T>
  void Store(size_t offset, const T& value) {
    std::memcpy(data_.data() + offset, &value, sizeof(T));
    if (!watches_.empty()) {
      Touched(offset, sizeof(T));
    }
  }

  void WriteBytes(size_t offset, std::span<const std::byte> src) {
    CopyBytes(std::span<std::byte>(data_).subspan(offset, src.size()), src);
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
    CopyBytes(dst, std::span<const std::byte>(data_).subspan(offset, dst.size()));
  }

 private:
  Node* node_;
  uint32_t lkey_;
  uint32_t rkey_;
  uint32_t access_;
  std::vector<std::byte> data_;
  struct WatchRange {
    size_t offset;
    size_t len;
    sim::Poller* poller;
  };
  std::vector<WatchRange> watches_;
};

}  // namespace rdma

#endif  // SRC_RDMA_MEMORY_H_
