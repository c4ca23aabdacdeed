#include "sessmpi/fabric/payload.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "sessmpi/base/buffer_pool.hpp"
#include "sessmpi/base/stats.hpp"

namespace sessmpi::fabric {

void Payload::resize(std::size_t n) {
  if (hdr_ != nullptr && n <= hdr_->capacity - off_ &&
      hdr_->refs.load(std::memory_order_relaxed) == 1) {
    size_ = n;
    return;
  }
  if (n == 0) {
    clear();
    return;
  }
  std::size_t block_capacity = 0;
  void* block =
      base::BufferPool::global().acquire(sizeof(Header) + n, &block_capacity);
  auto* hdr = new (block) Header{.refs{1}, .capacity = block_capacity - sizeof(Header)};
  auto* dst = reinterpret_cast<std::byte*>(hdr) + sizeof(Header);
  if (size_ > 0) {
    // Growing a live buffer (or un-sharing one): the old bytes move. This
    // is the deep copy the pool exists to avoid — keep it off the hot path.
    static const auto copies = base::counter("fabric.payload_copies");
    copies.add();
    std::memcpy(dst, bytes(), std::min(size_, n));
  }
  release();
  hdr_ = hdr;
  size_ = n;
  off_ = 0;
}

void Payload::drop_ref() noexcept {
  if (hdr_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const std::size_t block_capacity = sizeof(Header) + hdr_->capacity;
    hdr_->~Header();
    base::BufferPool::global().release(hdr_, block_capacity);
  }
}

}  // namespace sessmpi::fabric
