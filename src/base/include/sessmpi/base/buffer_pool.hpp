#pragma once

// Slab allocator for message payload buffers.
//
// Payload allocation used to be a `std::vector<std::byte>` per packet — one
// heap malloc/free per message on the eager path, plus full deep copies into
// the retransmission window. The pool hands out power-of-two size-class
// blocks from per-class freelists so steady-state messaging recycles the
// same few slabs; `fabric::Payload` layers an intrusive refcount on top so
// the retransmission window, chaos filters, and local delivery share one
// block instead of copying.
//
// Blocks above the largest size class (1 MiB) fall through to the system
// allocator and are never cached — rendezvous payloads that big are rare
// and not worth pinning.
//
// The pool puts a per-thread front cache before its shared freelists for
// the small (eager-sized) classes: every rank thread takes a block per
// message it sends and returns one per message acknowledged, and one mutex
// plus three counters shared by all of them made the pool the most
// contended lock of the 8 B message path. A thread exchanges blocks with
// the shared lists in batches, so the mutex is taken once per kFrontBatch
// messages; its counters are single-writer, summed by stats(). A front
// holds at most kFrontDepth blocks per front class (~126 KiB), on top of
// the shared lists' per-class cap, and drains into the shared lists when
// its thread exits.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sessmpi::base {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;        ///< acquires served from a freelist
    std::uint64_t misses = 0;      ///< acquires that hit the system allocator
    std::uint64_t releases = 0;    ///< blocks returned (cached or freed)
    /// Bytes parked in the shared freelists and the threads' front caches.
    std::size_t cached_bytes = 0;
    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The process-wide pool shared by all simulated ranks (they are
  /// threads). It is the only pool: a thread's front cache belongs to it.
  static BufferPool& global();

  /// Returns a block of at least `bytes` bytes; `*capacity` receives the
  /// actual block size (the size class), which must be passed to release().
  void* acquire(std::size_t bytes, std::size_t* capacity);

  /// Returns a block obtained from acquire(). Blocks whose capacity is a
  /// size class are cached (up to a per-class cap); others are freed.
  void release(void* block, std::size_t capacity) noexcept;

  /// A snapshot; exact while no other thread acquires or releases.
  [[nodiscard]] Stats stats() const;

  /// Frees every block in the shared lists and in the calling thread's
  /// front (tests / leak-checker hygiene). Other threads' fronts are
  /// untouched; they drain into the shared lists when those threads exit.
  void trim();

  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kClasses = 15;  ///< 64 B .. 1 MiB
  static constexpr std::size_t kMaxBlock = kMinBlock << (kClasses - 1);
  static constexpr std::size_t kMaxCachedPerClass = 256;
  static constexpr std::size_t kFrontClasses = 6;  ///< 64 B .. 2 KiB
  static constexpr std::size_t kFrontDepth = 32;   ///< per class per thread
  static constexpr std::size_t kFrontBatch = kFrontDepth / 2;

 private:
  struct FrontCache;
  BufferPool() = default;
  ~BufferPool();
  /// The calling thread's front cache, registered on first use.
  FrontCache& front();
  /// A departing thread's cache: blocks back to the shared lists, counts
  /// into the pool totals.
  void retire(FrontCache& c) noexcept;
  /// Move a front's blocks to the shared lists (mu_ held).
  void drain_front_locked(FrontCache& c) noexcept;
  /// Return a size-class block to its shared freelist (freed past the cap).
  void release_shared_locked(void* block, std::size_t cls) noexcept;
  /// Free every block in the shared lists (mu_ held).
  void free_shared_locked() noexcept;

  /// Smallest class whose block size holds `bytes`, or kClasses if too big.
  static std::size_t class_for(std::size_t bytes) noexcept;
  static std::size_t class_bytes(std::size_t cls) noexcept { return kMinBlock << cls; }

  mutable std::mutex mu_;
  std::vector<void*> free_[kClasses];
  std::size_t cached_bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> releases_{0};
  mutable std::mutex fronts_mu_;
  std::vector<FrontCache*> fronts_;  ///< live threads' caches, for stats()
};

}  // namespace sessmpi::base
