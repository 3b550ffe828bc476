// Recycled coroutine frames and payload buffers.
//
// Every simulated call creates and destroys short-lived coroutine frames
// (an RDMA op, the Spawn wrapper, a contended Resource::Use) and copies
// payload snapshots, and each would otherwise be one malloc/free pair.
// SizeClassPool keeps freed blocks on thread-local free lists, one per
// `Step`-byte size class up to `MaxPooled` bytes, so a steady-state
// simulation reuses blocks instead of allocating them. Larger blocks go
// straight to ::operator new. A thread keeps its high-water mark of pooled
// blocks (the most that were live at once in each class) until it exits.
// FramePool holds coroutine frames; each pool has free lists of its own.
//
// Under AddressSanitizer a pool forwards every call to ::operator
// new/delete: a recycled block would hide a use-after-free of a destroyed
// coroutine or a released buffer from the sanitizer.

#ifndef SRC_SIM_FRAME_POOL_H_
#define SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define RFP_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RFP_SIM_ASAN 1
#endif
#endif

namespace sim::internal {

#ifdef RFP_SIM_ASAN
inline constexpr bool kFramePoolEnabled = false;
#else
inline constexpr bool kFramePoolEnabled = true;
#endif

template <typename Tag, size_t Step, size_t MaxPooled>
class SizeClassPool {
 public:
  static constexpr size_t kStep = Step;
  static constexpr size_t kMaxPooled = MaxPooled;

  static void* Allocate(size_t bytes) {
    ++Lists().drawn;
    if (!kFramePoolEnabled || bytes > kMaxPooled) {
      return ::operator new(bytes);
    }
    FreeBlock*& head = Lists().heads[ClassOf(bytes)];
    if (head == nullptr) {
      return AllocateFresh(bytes);
    }
    FreeBlock* block = head;
    head = block->next;
    return block;
  }

  // `bytes` must be the size passed to Allocate (coroutine frames are freed
  // through the sized operator delete, which guarantees it).
  static void Deallocate(void* block, size_t bytes) noexcept {
    if (!kFramePoolEnabled || bytes > kMaxPooled) {
      ::operator delete(block);
      return;
    }
    FreeBlock*& head = Lists().heads[ClassOf(bytes)];
    head = new (block) FreeBlock{head};
  }

  // Blocks this thread has drawn with Allocate, pooled or not.
  static uint64_t drawn() { return Lists().drawn; }

 private:
  static constexpr size_t kClasses = kMaxPooled / kStep;

  struct FreeBlock {
    FreeBlock* next;
  };

  // Trivially destructible and constant-initialized, so the hot path reads
  // the thread-local directly, with no guard and no destructor ordering.
  struct FreeLists {
    FreeBlock* heads[kClasses];
    uint64_t drawn;
  };

  static size_t ClassOf(size_t bytes) { return bytes == 0 ? 0 : (bytes - 1) / kStep; }

  static FreeLists& Lists() {
    static thread_local FreeLists lists{};
    return lists;
  }

  // Returns a thread's pooled blocks to the system when the thread exits.
  // Blocks freed after that (by later static destructors) are pooled again
  // and reclaimed with the process.
  struct Reaper {
    ~Reaper() {
      for (FreeBlock*& head : Lists().heads) {
        while (head != nullptr) {
          ::operator delete(std::exchange(head, head->next));
        }
      }
    }
  };

  static void* AllocateFresh(size_t bytes) {
    static thread_local Reaper reaper;
    (void)reaper;
    return ::operator new((ClassOf(bytes) + 1) * kStep);
  }
};

struct FrameTag {};
using FramePool = SizeClassPool<FrameTag, 64, 2048>;

}  // namespace sim::internal

#endif  // SRC_SIM_FRAME_POOL_H_
