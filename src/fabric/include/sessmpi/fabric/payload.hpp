#pragma once

// Refcounted message payload backed by base::BufferPool slabs.
//
// A payload is written once by the sender (pack into data()) and is
// logically immutable from the moment the packet enters the fabric. Copying
// a Payload bumps an intrusive refcount instead of duplicating bytes, so
// the retransmission window, the chaos filters, and local delivery all
// alias the sender's buffer. The `fabric.payload_copies` counter counts
// *deep* byte duplications only — the eager path must keep it at zero
// (acceptance-gated in `bench_mbw_mr --smoke`).
//
// Thread-safety matches std::shared_ptr: the control block (refcount) is
// atomic, the bytes are not synchronized. The send path writes the bytes
// before handing the packet to the fabric, and the fabric's per-flow locks
// order that write before any cross-thread read.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sessmpi::fabric {

class Payload {
 public:
  Payload() noexcept = default;
  explicit Payload(std::size_t n) { resize(n); }

  Payload(const Payload& other) noexcept
      : hdr_(other.hdr_), size_(other.size_), off_(other.off_) {
    if (hdr_ != nullptr) {
      hdr_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Payload(Payload&& other) noexcept
      : hdr_(other.hdr_), size_(other.size_), off_(other.off_) {
    other.hdr_ = nullptr;
    other.size_ = 0;
    other.off_ = 0;
  }

  Payload& operator=(const Payload& other) noexcept {
    if (this != &other) {
      Payload tmp(other);
      swap(tmp);
    }
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      hdr_ = other.hdr_;
      size_ = other.size_;
      off_ = other.off_;
      other.hdr_ = nullptr;
      other.size_ = 0;
      other.off_ = 0;
    }
    return *this;
  }

  ~Payload() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] const std::byte* data() const noexcept { return bytes(); }
  [[nodiscard]] std::byte* data() noexcept { return bytes(); }

  /// Grow/shrink to `n` bytes, preserving the current contents' prefix.
  /// Reallocating a shared or too-small block deep-copies the old bytes
  /// (counted in fabric.payload_copies); the steady-state path — sizing a
  /// fresh payload once before packing — never copies.
  void resize(std::size_t n);

  /// A view of `[off, off+len)` sharing this payload's slab (refcount bump,
  /// zero byte copies). Striped rndv_data segments are slices of the staged
  /// message, so splitting across rails never touches fabric.payload_copies.
  /// The slice pins the whole slab until released, which is exactly the
  /// retransmission window's lifetime anyway.
  [[nodiscard]] Payload slice(std::size_t off, std::size_t len) const noexcept {
    Payload out(*this);
    if (off > size_) {
      off = size_;
    }
    if (len > size_ - off) {
      len = size_ - off;
    }
    out.off_ = off_ + off;
    out.size_ = len;
    return out;
  }

  /// Drop this reference (frees the slab when it is the last one).
  void clear() noexcept {
    release();
    hdr_ = nullptr;
    size_ = 0;
    off_ = 0;
  }

  /// Number of Payload objects sharing the block (0 for empty).
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return hdr_ == nullptr ? 0 : hdr_->refs.load(std::memory_order_relaxed);
  }

  void swap(Payload& other) noexcept {
    std::swap(hdr_, other.hdr_);
    std::swap(size_, other.size_);
    std::swap(off_, other.off_);
  }

 private:
  /// Lives at the front of the pooled slab; data bytes follow immediately.
  struct Header {
    std::atomic<std::uint32_t> refs;
    std::size_t capacity;  ///< data bytes available after the header
  };

  [[nodiscard]] std::byte* bytes() const noexcept {
    return hdr_ == nullptr
               ? nullptr
               : reinterpret_cast<std::byte*>(hdr_) + sizeof(Header) + off_;
  }

  void release() noexcept {
    if (hdr_ != nullptr) {
      drop_ref();
    }
  }
  /// Drop this handle's reference; the last one returns the slab.
  void drop_ref() noexcept;

  Header* hdr_ = nullptr;
  std::size_t size_ = 0;
  std::size_t off_ = 0;  ///< slice offset into the slab's data bytes
};

}  // namespace sessmpi::fabric
