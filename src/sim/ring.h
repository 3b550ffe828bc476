// A FIFO queue on a ring buffer that grows by doubling and never shrinks, so
// a queue that has reached its working depth allocates nothing, where a
// std::deque allocates and frees a block for every few dozen elements that
// pass through. Backs the engine's same-instant lane, a Resource's and a
// Notifier's waiters, and a completion queue. An empty ring holds no
// buffer.

#ifndef SRC_SIM_RING_H_
#define SRC_SIM_RING_H_

#include <cstddef>
#include <vector>

namespace sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const T& front() const { return ring_[head_]; }
  const T& back() const { return ring_[(head_ + size_ - 1) & (ring_.size() - 1)]; }

  void push_back(const T& value) {
    if (size_ == ring_.size()) {
      Grow();
    }
    ring_[(head_ + size_) & (ring_.size() - 1)] = value;
    ++size_;
  }

  T pop_front() {
    const T value = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return value;
  }

 private:
  void Grow() {
    std::vector<T> grown(ring_.empty() ? 16 : 2 * ring_.size());
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(grown);
    head_ = 0;
  }

  std::vector<T> ring_;  // size is zero or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace sim

#endif  // SRC_SIM_RING_H_
