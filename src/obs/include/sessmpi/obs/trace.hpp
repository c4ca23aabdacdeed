#pragma once

// Span tracing (DESIGN.md §11). Each thread that emits events owns a
// single-writer lock-free ring buffer; when the ring wraps, the oldest
// events are evicted so a long run degrades to "most recent window" rather
// than unbounded memory. Emission when enabled is a thread-local pointer
// chase plus one relaxed clock read and one release store — tens of
// nanoseconds; when disabled it is a single relaxed atomic load, and with
// -DSESSMPI_OBS_TRACING=OFF the OBS_* macros compile to nothing at all.
//
// Events carry a `track`: the merged-trace process id, which the sim sets
// to the MPI rank for rank threads (sim/cluster.cpp). Runtime threads
// (fabric pump, PMIx server) default to track -1 but may attribute events
// to a rank explicitly (e.g. a retransmit is charged to the sending rank's
// track so it lands on that rank's timeline).
//
// Collection contract: `Tracer::collect()` / `clear()` read the rings
// without synchronising against writers. Call them only when writers are
// quiescent — after `sim::Cluster::run()` returns (rank threads joined)
// and the cluster is destroyed or its fabric quiesced (pump thread idle).
// The unit tests and benches all follow this discipline, which is what
// keeps the suite TSan-clean.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sessmpi::obs {

/// Chrome trace-event phases we emit. Duration events (begin/end) nest by
/// stack order per (pid, tid); async events (async_*) correlate by
/// (category, id) across threads and nest by b/e stack order per id —
/// that is how a pump-thread retransmit nests under the owning send.
enum class Phase : std::uint8_t {
  begin,          ///< "B"
  end,            ///< "E"
  instant,        ///< "i"
  async_begin,    ///< "b"
  async_instant,  ///< "n"
  async_end,      ///< "e"
  flow_start,     ///< "s" — causal edge out of the enclosing slice
  flow_step,      ///< "t" — intermediate hop (e.g. a revoke re-flood)
  flow_end,       ///< "f" — causal edge into the enclosing slice
};

/// One trace event. Names and categories must be string literals (or
/// otherwise immortal): the ring stores the pointers, not copies.
struct Event {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t ts_ns = 0;   ///< base::now_ns() at emission
  std::uint64_t id = 0;     ///< async correlation id (async_* phases only)
  std::uint64_t arg = 0;    ///< one numeric payload (bytes, seq, ...)
  std::uint64_t arg2 = 0;   ///< second payload ("v2"; 0 = omitted)
  std::int32_t track = -1;  ///< merged-trace pid: rank, or -1 = runtime
  std::uint32_t tid = 0;    ///< writer thread ordinal (allocation order)
  Phase phase = Phase::instant;
};

/// Single-writer ring. The owning thread emits; any thread may drain once
/// the owner is quiescent. `head_` counts total events ever emitted, so
/// eviction is implicit: slot = head % capacity, evicted = head - size.
class TraceBuffer {
 public:
  TraceBuffer(std::size_t capacity, std::uint32_t tid);

  /// Owner thread only.
  void emit(const Event& ev) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    ring_[static_cast<std::size_t>(h % ring_.size())] = ev;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Surviving events, oldest first. Writer must be quiescent.
  [[nodiscard]] std::vector<Event> drain() const;

  [[nodiscard]] std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t evicted() const noexcept;
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Writer must be quiescent.
  void reset() noexcept { head_.store(0, std::memory_order_release); }

  /// Dekker handshake with Tracer::freeze(): the owner marks the ring busy
  /// (seq_cst) before re-checking `enabled`, so a freezer that disabled the
  /// tracer (seq_cst) and then observes busy == false knows no write is in
  /// flight and none can start. The release/acquire pair on clearing busy
  /// gives the freezer happens-before over the final ring write.
  void begin_write() noexcept { busy_.store(true, std::memory_order_seq_cst); }
  void end_write() noexcept { busy_.store(false, std::memory_order_release); }
  [[nodiscard]] bool busy() const noexcept {
    return busy_.load(std::memory_order_acquire);
  }

 private:
  std::vector<Event> ring_;
  std::uint32_t tid_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<bool> busy_{false};
};

/// Process-wide tracer: owns every thread's ring (created lazily on first
/// emission, so a run that never enables tracing allocates nothing).
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Default merged-trace track for events emitted by the calling thread.
  /// The sim sets this to the rank for the duration of rank_main.
  static void set_thread_track(std::int32_t track) noexcept;
  [[nodiscard]] static std::int32_t thread_track() noexcept;

  /// Simulated per-rank clock skew: every event attributed to `track` gets
  /// `ns` added to its timestamp at emission, modeling unsynchronized node
  /// clocks. write_rank_traces records the negation as the per-file
  /// `clock_ns_offset`, which is what tools/trace_merge applies to realign
  /// the merged timeline — so a skewed run round-trips to an aligned merge.
  /// Set by sim::Cluster from Options::clock_skew_ns; tracks outside
  /// [0, kMaxSkewTracks) never skew.
  static constexpr std::int32_t kMaxSkewTracks = 1024;
  static void set_track_skew_ns(std::int32_t track, std::int64_t ns) noexcept;
  [[nodiscard]] static std::int64_t track_skew_ns(std::int32_t track) noexcept;
  /// Zero every track's skew (a new cluster starts with aligned clocks).
  static void reset_track_skews() noexcept;

  /// Ring capacity (events) for rings created *after* the call.
  void set_ring_capacity(std::size_t events);
  [[nodiscard]] std::size_t ring_capacity() const noexcept;

  // --- emission (all no-ops when disabled) ---
  void begin(const char* name, const char* cat, std::uint64_t arg = 0);
  void end(const char* name, const char* cat);
  void instant(const char* name, const char* cat, std::uint64_t arg = 0);
  /// Instant attributed to an explicit track (for runtime threads).
  void instant_on(std::int32_t track, const char* name, const char* cat,
                  std::uint64_t arg = 0, std::uint64_t arg2 = 0);
  void async_begin(std::int32_t track, const char* name, const char* cat,
                   std::uint64_t id, std::uint64_t arg = 0,
                   std::uint64_t arg2 = 0);
  void async_instant(std::int32_t track, const char* name, const char* cat,
                     std::uint64_t id, std::uint64_t arg = 0);
  void async_end(std::int32_t track, const char* name, const char* cat,
                 std::uint64_t id);
  /// Chrome flow events: a flow with one id draws causal arrows between the
  /// slices enclosing its s/t/f points, across pids — how a send on rank 0
  /// links to its match on rank 3 in the merged view. `id` is the span id
  /// carried on the wire as the message's trace context.
  void flow_start(const char* name, const char* cat, std::uint64_t id,
                  std::uint64_t arg = 0);
  void flow_step(const char* name, const char* cat, std::uint64_t id);
  void flow_end(const char* name, const char* cat, std::uint64_t id);

  /// Process-unique 64-bit span id (never 0; 0 means "no trace context").
  [[nodiscard]] static std::uint64_t next_span_id() noexcept;

  /// Thread-local flow context override: while non-zero, message-level
  /// trace contexts allocated by the send path reuse this id instead of a
  /// fresh one, so every message a rank sends inside one collective joins
  /// that collective's single distributed trace. 0 = no override.
  static void set_flow_context(std::uint64_t ctx) noexcept;
  [[nodiscard]] static std::uint64_t flow_context() noexcept;

  /// The calling thread's rank-scoped tracer state. Whatever carries a
  /// rank across threads (a fiber's suspend/resume, sim::ProcessAdopter)
  /// saves and restores it whole, so neither the track nor a flow context
  /// ever leaks from one rank to another.
  struct ThreadState {
    std::int32_t track = -1;
    std::uint64_t flow_ctx = 0;
  };
  [[nodiscard]] static ThreadState thread_state() noexcept;
  static void set_thread_state(const ThreadState& st) noexcept;

  /// All surviving events across all rings, sorted by timestamp.
  /// Writers must be quiescent (see file comment).
  [[nodiscard]] std::vector<Event> collect() const;

  /// Drop all events (rings stay registered). Writers must be quiescent.
  void clear();

  /// Flight-recorder stop-the-world: disable tracing and wait until every
  /// ring's in-flight emission has drained, after which collect() is safe
  /// even though writer threads are still running (they observe disabled
  /// before touching their rings — see TraceBuffer::begin_write). Returns
  /// whether tracing was enabled, for a later thaw(). Unlike collect()'s
  /// usual quiescence contract, freeze() may be called mid-run — that is
  /// the whole point of a postmortem dump.
  bool freeze();
  /// Resume after a freeze()+collect(): re-enables iff `re_enable`.
  void thaw(bool re_enable) noexcept;

  /// Total events evicted by ring wraparound since the last clear().
  [[nodiscard]] std::uint64_t evicted() const;

 private:
  Tracer() = default;
  TraceBuffer& local_buffer();
  void emit(const char* name, const char* cat, Phase ph, std::int32_t track,
            std::uint64_t id, std::uint64_t arg, std::uint64_t arg2 = 0);

  mutable std::mutex mu_;  ///< guards buffers_ (registration + collection)
  std::vector<std::shared_ptr<TraceBuffer>> buffers_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_{1u << 14};
  std::uint32_t next_tid_ = 0;
};

/// RAII duration span. Captures enabled-ness at construction so a toggle
/// mid-span cannot emit an unmatched end.
class Span {
 public:
  Span(const char* name, const char* cat, std::uint64_t arg = 0) noexcept {
    Tracer& t = Tracer::instance();
    if (t.enabled()) {
      name_ = name;
      cat_ = cat;
      t.begin(name, cat, arg);
    }
  }
  ~Span() {
    if (name_ != nullptr) Tracer::instance().end(name_, cat_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
};

/// RAII thread-local flow-context override (see Tracer::set_flow_context).
/// Saves and restores, so nested scopes compose.
class ScopedFlowContext {
 public:
  explicit ScopedFlowContext(std::uint64_t ctx) noexcept
      : saved_(Tracer::flow_context()) {
    Tracer::set_flow_context(ctx);
  }
  ~ScopedFlowContext() { Tracer::set_flow_context(saved_); }
  ScopedFlowContext(const ScopedFlowContext&) = delete;
  ScopedFlowContext& operator=(const ScopedFlowContext&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace sessmpi::obs

// --- probe macros -----------------------------------------------------------
// SESSMPI_OBS_DISABLED (set by -DSESSMPI_OBS_TRACING=OFF) compiles every
// probe out of the binary; macro arguments are then not evaluated, so keep
// them side-effect free.

#if defined(SESSMPI_OBS_DISABLED)

#define OBS_SPAN(name, cat) ((void)0)
#define OBS_SPAN_ARG(name, cat, arg) ((void)0)
#define OBS_INSTANT(name, cat) ((void)0)
#define OBS_INSTANT_ARG(name, cat, arg) ((void)0)
#define OBS_INSTANT_ON(track, name, cat, arg) ((void)0)
#define OBS_INSTANT_ON2(track, name, cat, arg, arg2) ((void)0)
#define OBS_ASYNC_BEGIN(track, name, cat, id, arg) ((void)0)
#define OBS_ASYNC_BEGIN2(track, name, cat, id, arg, arg2) ((void)0)
#define OBS_ASYNC_INSTANT(track, name, cat, id, arg) ((void)0)
#define OBS_ASYNC_END(track, name, cat, id) ((void)0)
#define OBS_FLOW_START(name, cat, id, arg) ((void)0)
#define OBS_FLOW_STEP(name, cat, id) ((void)0)
#define OBS_FLOW_END(name, cat, id) ((void)0)

#else

#define SESSMPI_OBS_CONCAT_(a, b) a##b
#define SESSMPI_OBS_CONCAT(a, b) SESSMPI_OBS_CONCAT_(a, b)

#define OBS_SPAN(name, cat) \
  ::sessmpi::obs::Span SESSMPI_OBS_CONCAT(obs_span_, __LINE__)(name, cat)
#define OBS_SPAN_ARG(name, cat, arg) \
  ::sessmpi::obs::Span SESSMPI_OBS_CONCAT(obs_span_, __LINE__)(name, cat, arg)
#define OBS_INSTANT(name, cat) \
  ::sessmpi::obs::Tracer::instance().instant(name, cat)
#define OBS_INSTANT_ARG(name, cat, arg) \
  ::sessmpi::obs::Tracer::instance().instant(name, cat, arg)
#define OBS_INSTANT_ON(track, name, cat, arg) \
  ::sessmpi::obs::Tracer::instance().instant_on(track, name, cat, arg)
#define OBS_INSTANT_ON2(track, name, cat, arg, arg2) \
  ::sessmpi::obs::Tracer::instance().instant_on(track, name, cat, arg, arg2)
#define OBS_ASYNC_BEGIN(track, name, cat, id, arg) \
  ::sessmpi::obs::Tracer::instance().async_begin(track, name, cat, id, arg)
#define OBS_ASYNC_BEGIN2(track, name, cat, id, arg, arg2)                 \
  ::sessmpi::obs::Tracer::instance().async_begin(track, name, cat, id, arg, \
                                                 arg2)
#define OBS_ASYNC_INSTANT(track, name, cat, id, arg) \
  ::sessmpi::obs::Tracer::instance().async_instant(track, name, cat, id, arg)
#define OBS_ASYNC_END(track, name, cat, id) \
  ::sessmpi::obs::Tracer::instance().async_end(track, name, cat, id)
#define OBS_FLOW_START(name, cat, id, arg) \
  ::sessmpi::obs::Tracer::instance().flow_start(name, cat, id, arg)
#define OBS_FLOW_STEP(name, cat, id) \
  ::sessmpi::obs::Tracer::instance().flow_step(name, cat, id)
#define OBS_FLOW_END(name, cat, id) \
  ::sessmpi::obs::Tracer::instance().flow_end(name, cat, id)

#endif  // SESSMPI_OBS_DISABLED
