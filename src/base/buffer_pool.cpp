#include "sessmpi/base/buffer_pool.hpp"

#include <algorithm>
#include <array>
#include <new>

namespace sessmpi::base {

/// One thread's blocks of the front classes. The counts and counters have
/// a single writer (this thread) and are read by stats() from any thread.
struct BufferPool::FrontCache {
  bool registered = false;
  std::array<std::array<void*, kFrontDepth>, kFrontClasses> blocks{};
  std::array<std::atomic<std::size_t>, kFrontClasses> count{};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> releases{0};

  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  ~FrontCache() {
    if (registered) {
      global().retire(*this);
    }
  }
};

BufferPool::~BufferPool() {
  // The threads' fronts are gone by now: thread-locals die before statics.
  std::lock_guard<std::mutex> lock(mu_);
  free_shared_locked();
}

BufferPool& BufferPool::global() {
  static BufferPool pool;
  return pool;
}

BufferPool::FrontCache& BufferPool::front() {
  thread_local FrontCache cache;
  if (!cache.registered) {
    cache.registered = true;
    std::lock_guard lock(fronts_mu_);
    fronts_.push_back(&cache);
  }
  return cache;
}

void BufferPool::retire(FrontCache& c) noexcept {
  std::lock_guard lock(fronts_mu_);
  std::erase(fronts_, &c);
  hits_.fetch_add(c.hits.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  releases_.fetch_add(c.releases.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  std::lock_guard shared(mu_);
  drain_front_locked(c);
}

void BufferPool::drain_front_locked(FrontCache& c) noexcept {
  for (std::size_t cls = 0; cls < kFrontClasses; ++cls) {
    const std::size_t n = c.count[cls].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      release_shared_locked(c.blocks[cls][i], cls);
    }
    c.count[cls].store(0, std::memory_order_relaxed);
  }
}

std::size_t BufferPool::class_for(std::size_t bytes) noexcept {
  std::size_t cls = 0;
  std::size_t cap = kMinBlock;
  while (cls < kClasses && cap < bytes) {
    cap <<= 1;
    ++cls;
  }
  return cls;
}

void* BufferPool::acquire(std::size_t bytes, std::size_t* capacity) {
  const std::size_t cls = class_for(bytes);
  if (cls >= kClasses) {
    // Oversized: exact allocation, never cached.
    *capacity = bytes;
    misses_.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes);
  }
  *capacity = class_bytes(cls);
  if (cls < kFrontClasses) {
    FrontCache& c = front();
    std::size_t n = c.count[cls].load(std::memory_order_relaxed);
    if (n == 0) {
      // Refill half the front from the shared list under one lock.
      std::lock_guard<std::mutex> lock(mu_);
      auto& list = free_[cls];
      const std::size_t take = std::min(kFrontBatch, list.size());
      for (std::size_t i = 0; i < take; ++i) {
        c.blocks[cls][n++] = list.back();
        list.pop_back();
      }
      cached_bytes_ -= take * class_bytes(cls);
    }
    if (n > 0) {
      FrontCache::bump(c.hits);
      c.count[cls].store(n - 1, std::memory_order_relaxed);
      return c.blocks[cls][n - 1];
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(class_bytes(cls));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_[cls].empty()) {
      void* block = free_[cls].back();
      free_[cls].pop_back();
      cached_bytes_ -= class_bytes(cls);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return block;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(class_bytes(cls));
}

void BufferPool::release(void* block, std::size_t capacity) noexcept {
  const std::size_t cls = class_for(capacity);
  if (cls >= kClasses || class_bytes(cls) != capacity) {
    releases_.fetch_add(1, std::memory_order_relaxed);
    ::operator delete(block);
    return;
  }
  if (cls < kFrontClasses) {
    FrontCache& c = front();
    FrontCache::bump(c.releases);
    std::size_t n = c.count[cls].load(std::memory_order_relaxed);
    if (n == kFrontDepth) {
      // Spill half the front to the shared list under one lock.
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < kFrontBatch; ++i) {
        release_shared_locked(c.blocks[cls][--n], cls);
      }
    }
    c.blocks[cls][n] = block;
    c.count[cls].store(n + 1, std::memory_order_relaxed);
    return;
  }
  releases_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  release_shared_locked(block, cls);
}

void BufferPool::release_shared_locked(void* block, std::size_t cls) noexcept {
  if (free_[cls].size() < kMaxCachedPerClass) {
    free_[cls].push_back(block);
    cached_bytes_ += class_bytes(cls);
  } else {
    ::operator delete(block);
  }
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  {
    std::lock_guard lock(fronts_mu_);
    s.hits = hits_.load(std::memory_order_relaxed);
    s.releases = releases_.load(std::memory_order_relaxed);
    for (const FrontCache* c : fronts_) {
      s.hits += c->hits.load(std::memory_order_relaxed);
      s.releases += c->releases.load(std::memory_order_relaxed);
      for (std::size_t cls = 0; cls < kFrontClasses; ++cls) {
        s.cached_bytes +=
            c->count[cls].load(std::memory_order_relaxed) * class_bytes(cls);
      }
    }
  }
  s.misses = misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.cached_bytes += cached_bytes_;
  return s;
}

void BufferPool::trim() {
  FrontCache& c = front();
  std::lock_guard<std::mutex> lock(mu_);
  drain_front_locked(c);
  free_shared_locked();
}

void BufferPool::free_shared_locked() noexcept {
  for (auto& list : free_) {
    for (void* block : list) {
      ::operator delete(block);
    }
    list.clear();
  }
  cached_bytes_ = 0;
}

}  // namespace sessmpi::base
