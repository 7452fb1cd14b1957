#ifndef RAFIKI_COMMON_RING_DEQUE_H_
#define RAFIKI_COMMON_RING_DEQUE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace rafiki {

/// Growable single-threaded circular FIFO. Unlike std::deque it is one flat
/// allocation that is reused forever: it grows on demand but never shrinks,
/// so steady-state push/pop never touches the heap. Indexing is relative to
/// the front.
template <typename T>
class RingDeque {
 public:
  RingDeque() = default;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void push_back(T&& value) {
    if (size_ == buf_.size()) Grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  T& front() { return buf_[head_]; }
  T& operator[](size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void pop_front() {
    buf_[head_] = T{};  // release owned resources promptly
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
  }

 private:
  void Grow() {
    size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace rafiki

#endif  // RAFIKI_COMMON_RING_DEQUE_H_
