#include "sessmpi/base/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

namespace sessmpi::base {
namespace {

constexpr std::size_t kSmall = BufferPool::kMinBlock;  // the smallest class

/// Acquires `n` smallest-class blocks on the calling thread, then releases
/// them all.
void fill_front(BufferPool& pool, std::size_t n) {
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t cap = 0;
    blocks.push_back(pool.acquire(kSmall, &cap));
    ASSERT_EQ(cap, kSmall);
  }
  for (void* b : blocks) {
    pool.release(b, kSmall);
  }
}

TEST(BufferPool, FrontBlocksAreCountedAndTrimmed) {
  BufferPool& pool = BufferPool::global();
  pool.trim();
  // Whatever other live threads' fronts hold.
  const std::size_t base = pool.stats().cached_bytes;
  std::thread([&] {
    // A full front, then one more: half the front spills to the shared
    // list. Either way every parked block is counted.
    fill_front(pool, BufferPool::kFrontDepth);
    EXPECT_EQ(pool.stats().cached_bytes,
              base + BufferPool::kFrontDepth * kSmall);
    fill_front(pool, BufferPool::kFrontDepth + 1);
    EXPECT_EQ(pool.stats().cached_bytes,
              base + (BufferPool::kFrontDepth + 1) * kSmall);
    // trim() frees the shared lists and this thread's front.
    pool.trim();
    EXPECT_EQ(pool.stats().cached_bytes, base);
  }).join();
}

TEST(BufferPool, ExitingThreadDrainsItsFront) {
  BufferPool& pool = BufferPool::global();
  pool.trim();
  const BufferPool::Stats before = pool.stats();
  constexpr std::size_t kBlocks = 8;
  std::thread([&] { fill_front(pool, kBlocks); }).join();
  // The departed thread's blocks and counts now live in the pool itself.
  const BufferPool::Stats after = pool.stats();
  EXPECT_EQ(after.cached_bytes, before.cached_bytes + kBlocks * kSmall);
  EXPECT_EQ(after.releases, before.releases + kBlocks);
  // Another thread takes them from the shared list: hits, not misses.
  std::thread([&] {
    std::size_t cap = 0;
    void* b = pool.acquire(kSmall, &cap);
    pool.release(b, cap);
    pool.trim();
  }).join();
  const BufferPool::Stats last = pool.stats();
  EXPECT_EQ(last.hits, after.hits + 1);
  EXPECT_EQ(last.misses, after.misses);
  EXPECT_EQ(last.cached_bytes, before.cached_bytes);
}

}  // namespace
}  // namespace sessmpi::base
