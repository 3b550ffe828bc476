// Recycled coroutine frames.
//
// Every simulated call creates and destroys a handful of short-lived
// coroutine frames (Task bodies, Resource::Use, the Spawn wrapper), and each
// frame would otherwise be one malloc/free pair. FramePool keeps freed frames
// on thread-local free lists, one per 64-byte size class up to 2 KiB, so a
// steady-state simulation reuses frames instead of allocating them. Larger
// frames go straight to ::operator new. A thread keeps its high-water mark of
// pooled frames until it exits.
//
// Under AddressSanitizer the pool forwards every call to ::operator
// new/delete: a recycled frame would hide a use-after-free of a destroyed
// coroutine from the sanitizer.

#ifndef SRC_SIM_FRAME_POOL_H_
#define SRC_SIM_FRAME_POOL_H_

#include <cstddef>
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

class FramePool {
 public:
  static constexpr size_t kStep = 64;
  static constexpr size_t kMaxPooled = 2048;

  static void* Allocate(size_t bytes) {
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
  static void Deallocate(void* frame, size_t bytes) noexcept {
    if (!kFramePoolEnabled || bytes > kMaxPooled) {
      ::operator delete(frame);
      return;
    }
    FreeBlock*& head = Lists().heads[ClassOf(bytes)];
    head = new (frame) FreeBlock{head};
  }

 private:
  static constexpr size_t kClasses = kMaxPooled / kStep;

  struct FreeBlock {
    FreeBlock* next;
  };

  // Trivially destructible and constant-initialized, so the hot path reads
  // the thread-local directly, with no guard and no destructor ordering.
  struct FreeLists {
    FreeBlock* heads[kClasses];
  };

  static size_t ClassOf(size_t bytes) { return bytes == 0 ? 0 : (bytes - 1) / kStep; }

  static FreeLists& Lists() {
    static thread_local FreeLists lists{};
    return lists;
  }

  // Returns a thread's pooled blocks to the system when the thread exits.
  // Frames freed after that (by later static destructors) are pooled again
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

}  // namespace sim::internal

#endif  // SRC_SIM_FRAME_POOL_H_
