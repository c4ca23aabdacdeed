#include "sessmpi/obs/trace.hpp"

#include <algorithm>
#include <thread>

#include "sessmpi/base/clock.hpp"

namespace sessmpi::obs {

namespace {

thread_local Tracer::ThreadState tls_state;

// Span-id allocator: process-wide so ids are unique across ranks in the
// in-process sim (a receiver must never confuse two senders' contexts).
std::atomic<std::uint64_t> g_next_span_id{1};

// Per-thread ring handle. shared_ptr keeps the ring alive in the Tracer's
// registry after the owning thread exits (sim rank threads are short-lived;
// their events are collected after the run).
thread_local std::shared_ptr<TraceBuffer> tls_buffer;

// Injected per-track clock skew (relaxed: a torn read is impossible for
// aligned 64-bit atomics, and skew changes only happen between runs).
std::atomic<std::int64_t> g_track_skew_ns[Tracer::kMaxSkewTracks]{};

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity, std::uint32_t tid)
    : ring_(std::max<std::size_t>(capacity, 2)), tid_(tid) {}

std::vector<Event> TraceBuffer::drain() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(h, ring_.size());
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = h - n; i < h; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i % ring_.size())]);
  }
  return out;
}

std::uint64_t TraceBuffer::evicted() const noexcept {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  return h > ring_.size() ? h - ring_.size() : 0;
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::set_thread_track(std::int32_t track) noexcept {
  tls_state.track = track;
}

std::int32_t Tracer::thread_track() noexcept { return tls_state.track; }

std::uint64_t Tracer::next_span_id() noexcept {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::set_flow_context(std::uint64_t ctx) noexcept {
  tls_state.flow_ctx = ctx;
}

std::uint64_t Tracer::flow_context() noexcept { return tls_state.flow_ctx; }

Tracer::ThreadState Tracer::thread_state() noexcept { return tls_state; }

void Tracer::set_thread_state(const ThreadState& st) noexcept {
  tls_state = st;
}

void Tracer::set_track_skew_ns(std::int32_t track, std::int64_t ns) noexcept {
  if (track >= 0 && track < kMaxSkewTracks) {
    g_track_skew_ns[track].store(ns, std::memory_order_relaxed);
  }
}

std::int64_t Tracer::track_skew_ns(std::int32_t track) noexcept {
  return track >= 0 && track < kMaxSkewTracks
             ? g_track_skew_ns[track].load(std::memory_order_relaxed)
             : 0;
}

void Tracer::reset_track_skews() noexcept {
  for (auto& skew : g_track_skew_ns) {
    skew.store(0, std::memory_order_relaxed);
  }
}

void Tracer::set_ring_capacity(std::size_t events) {
  capacity_.store(std::max<std::size_t>(events, 2),
                  std::memory_order_relaxed);
}

std::size_t Tracer::ring_capacity() const noexcept {
  return capacity_.load(std::memory_order_relaxed);
}

TraceBuffer& Tracer::local_buffer() {
  if (!tls_buffer) {
    std::lock_guard lk(mu_);
    tls_buffer = std::make_shared<TraceBuffer>(
        capacity_.load(std::memory_order_relaxed), next_tid_++);
    buffers_.push_back(tls_buffer);
  }
  return *tls_buffer;
}

void Tracer::emit(const char* name, const char* cat, Phase ph,
                  std::int32_t track, std::uint64_t id, std::uint64_t arg,
                  std::uint64_t arg2) {
  TraceBuffer& buf = local_buffer();
  // Dekker handshake with freeze(): publish busy (seq_cst), then re-check
  // enabled (seq_cst). Either the freezer sees busy and waits for us, or we
  // see disabled and back out — never a write racing the freeze-side read.
  buf.begin_write();
  if (!enabled_.load(std::memory_order_seq_cst)) {
    buf.end_write();
    return;
  }
  Event ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = base::now_ns() + track_skew_ns(track);
  ev.id = id;
  ev.arg = arg;
  ev.arg2 = arg2;
  ev.track = track;
  ev.phase = ph;
  ev.tid = buf.tid();
  buf.emit(ev);
  buf.end_write();
}

void Tracer::begin(const char* name, const char* cat, std::uint64_t arg) {
  if (!enabled()) return;
  emit(name, cat, Phase::begin, tls_state.track, 0, arg);
}

void Tracer::end(const char* name, const char* cat) {
  if (!enabled()) return;
  emit(name, cat, Phase::end, tls_state.track, 0, 0);
}

void Tracer::instant(const char* name, const char* cat, std::uint64_t arg) {
  if (!enabled()) return;
  emit(name, cat, Phase::instant, tls_state.track, 0, arg);
}

void Tracer::instant_on(std::int32_t track, const char* name, const char* cat,
                        std::uint64_t arg, std::uint64_t arg2) {
  if (!enabled()) return;
  emit(name, cat, Phase::instant, track, 0, arg, arg2);
}

void Tracer::async_begin(std::int32_t track, const char* name, const char* cat,
                         std::uint64_t id, std::uint64_t arg,
                         std::uint64_t arg2) {
  if (!enabled()) return;
  emit(name, cat, Phase::async_begin, track, id, arg, arg2);
}

void Tracer::async_instant(std::int32_t track, const char* name,
                           const char* cat, std::uint64_t id,
                           std::uint64_t arg) {
  if (!enabled()) return;
  emit(name, cat, Phase::async_instant, track, id, arg);
}

void Tracer::async_end(std::int32_t track, const char* name, const char* cat,
                       std::uint64_t id) {
  if (!enabled()) return;
  emit(name, cat, Phase::async_end, track, id, 0);
}

void Tracer::flow_start(const char* name, const char* cat, std::uint64_t id,
                        std::uint64_t arg) {
  if (!enabled()) return;
  emit(name, cat, Phase::flow_start, tls_state.track, id, arg);
}

void Tracer::flow_step(const char* name, const char* cat, std::uint64_t id) {
  if (!enabled()) return;
  emit(name, cat, Phase::flow_step, tls_state.track, id, 0);
}

void Tracer::flow_end(const char* name, const char* cat, std::uint64_t id) {
  if (!enabled()) return;
  emit(name, cat, Phase::flow_end, tls_state.track, id, 0);
}

std::vector<Event> Tracer::collect() const {
  std::vector<Event> out;
  {
    std::lock_guard lk(mu_);
    for (const auto& buf : buffers_) {
      auto events = buf->drain();
      out.insert(out.end(), events.begin(), events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

void Tracer::clear() {
  std::lock_guard lk(mu_);
  for (const auto& buf : buffers_) buf->reset();
}

std::uint64_t Tracer::evicted() const {
  std::lock_guard lk(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) total += buf->evicted();
  return total;
}

bool Tracer::freeze() {
  const bool was = enabled_.load(std::memory_order_relaxed);
  enabled_.store(false, std::memory_order_seq_cst);
  std::lock_guard lk(mu_);
  // Holding mu_ also blocks new ring registration; a thread parked in
  // local_buffer() will see disabled once it gets in, and back out.
  for (const auto& buf : buffers_) {
    while (buf->busy()) {
      std::this_thread::yield();
    }
  }
  return was;
}

void Tracer::thaw(bool re_enable) noexcept {
  if (re_enable) {
    enabled_.store(true, std::memory_order_release);
  }
}

}  // namespace sessmpi::obs
