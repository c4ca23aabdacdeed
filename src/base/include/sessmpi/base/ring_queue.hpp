#pragma once

// FIFO on a power-of-two ring that keeps its storage when it drains. The
// message path fills and empties its queues (inboxes, match queues, flow
// windows) once per message; std::deque frees and reallocates a node every
// few elements in that pattern, and a node-based map allocates per entry.
// A ring allocates only while it grows past its high-water mark, and a
// drained ring above kKeepSlots gives its storage back so one burst does
// not pin memory for the life of the queue.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace sessmpi::base {

template <class T>
class RingQueue {
 public:
  /// Slots a drained ring keeps; larger rings free their storage.
  static constexpr std::size_t kKeepSlots = 64;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T& front() noexcept { return slots_[head_]; }
  [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }
  /// The i-th element from the front.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void push_back(T v) {
    if (size_ == slots_.size()) {
      grow();
    }
    (*this)[size_] = std::move(v);
    ++size_;
  }
  void pop_front() {
    slots_[head_] = T{};  // release what the slot still owns
    advance();
  }
  /// Move the front element out. Its slot keeps only what a moved-from T
  /// holds, which for the queue's element types is nothing.
  T take_front() {
    T v = std::move(slots_[head_]);
    advance();
    return v;
  }
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
  }
  /// Remove every element satisfying `pred` (called once per element, in
  /// order), keeping the others' order; returns how many were removed.
  template <class Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& v = (*this)[i];
      if (pred(std::as_const(v))) {
        continue;
      }
      if (kept != i) {
        (*this)[kept] = std::move(v);
      }
      ++kept;
    }
    for (std::size_t i = kept; i < size_; ++i) {
      (*this)[i] = T{};
    }
    const std::size_t removed = size_ - kept;
    size_ = kept;
    if (removed > 0 && size_ == 0) {
      drained();
    }
    return removed;
  }

 private:
  void grow() {
    std::vector<T> next(std::max<std::size_t>(4, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move((*this)[i]);
    }
    slots_.swap(next);
    head_ = 0;
  }
  void advance() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    if (--size_ == 0) {
      drained();
    }
  }
  void drained() {
    head_ = 0;
    if (slots_.size() > kKeepSlots) {
      std::vector<T>().swap(slots_);
    }
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sessmpi::base
