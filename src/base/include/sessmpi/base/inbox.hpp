#pragma once

// A blocking multi-producer single-consumer inbox used as the receive queue
// of every simulated process endpoint. Producers are other rank threads (and
// runtime threads); the consumer is the owning rank's progress engine.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/ring_queue.hpp"
#include "sessmpi/base/yield.hpp"

namespace sessmpi::base {

template <typename T>
class Inbox {
 public:
  /// Enqueue an item and wake the consumer if it is blocked.
  void push(T item) {
    {
      std::lock_guard lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// Non-blocking pop; returns nullopt when empty.
  std::optional<T> try_pop() {
    std::lock_guard lock(mu_);
    if (items_.empty()) {
      return std::nullopt;
    }
    return items_.take_front();
  }

  /// Blocking pop with timeout. Returns nullopt on timeout. Under a
  /// cooperative scheduler the wait polls with yields instead of parking
  /// the worker thread on the condition variable.
  template <typename Rep, typename Period>
  std::optional<T> pop_wait(std::chrono::duration<Rep, Period> timeout) {
    if (cooperative()) {
      const std::int64_t deadline =
          now_ns() +
          std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
      for (;;) {
        if (auto item = try_pop()) {
          return item;
        }
        if (now_ns() >= deadline) {
          return std::nullopt;
        }
        try_yield();
      }
    }
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, timeout, [&] { return !items_.empty(); })) {
      return std::nullopt;
    }
    return items_.take_front();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  RingQueue<T> items_;
};

}  // namespace sessmpi::base
