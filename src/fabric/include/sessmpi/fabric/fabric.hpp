#pragma once

// The simulated interconnect. One Endpoint (blocking inbox) per rank; the
// Fabric routes packets between endpoints, charging wire time from the cost
// model on the sending side: shared-memory cost for intra-node traffic,
// Aries-like network cost for inter-node traffic. Failure injection marks a
// rank unreachable, after which sends to it are dropped (the runtime layers
// surface this through PMIx failure events and operation timeouts).
//
// Reliable delivery (DESIGN.md §9): the fabric guarantees exactly-once,
// in-order delivery per (src,dst) flow even when the chaos drop filter eats
// packets. Every sequenced packet is stamped with a flow sequence number and
// retained in a sender-side unacked window; a fabric-owned pump thread
// retransmits entries whose RTO expired (exponential backoff), flushes
// batched cumulative/selective ACKs, and — after `max_retries` consecutive
// losses — escalates the peer to a mark_failed-style unreachable verdict.
// Receivers suppress retransmit-induced duplicates and hold out-of-order
// arrivals in a reorder buffer, so the pt2pt matching engine above never
// sees a duplicate or an overtaking message.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <optional>

#include "sessmpi/base/backoff.hpp"
#include "sessmpi/base/cost_model.hpp"
#include "sessmpi/base/error.hpp"
#include "sessmpi/base/inbox.hpp"
#include "sessmpi/base/topology.hpp"
#include "sessmpi/fabric/cc.hpp"
#include "sessmpi/fabric/packet.hpp"

namespace sessmpi::fabric {

class Endpoint {
 public:
  base::Inbox<Packet>& inbox() noexcept { return inbox_; }

  /// Count of packets delivered to this endpoint (diagnostics / tests).
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  friend class Fabric;
  base::Inbox<Packet> inbox_;
  std::atomic<std::uint64_t> delivered_{0};
};

/// Reliability policy knobs. Defaults are sized for the calibrated cost
/// model (wire latencies of 0.2–0.6 ms): the RTO comfortably exceeds one
/// wire time plus the ACK-flush tick, so lossless runs never retransmit.
struct ReliabilityConfig {
  /// Pump period: batched-ACK flush + retransmit scan granularity.
  std::int64_t tick_ns = 1'000'000;  // 1 ms
  /// RTO for the first retransmit = rto_base_ns + the packet's modeled wire
  /// time; subsequent retries back off exponentially up to rto_cap_ns.
  std::int64_t rto_base_ns = 20'000'000;   // 20 ms
  std::int64_t rto_cap_ns = 320'000'000;   // 320 ms
  /// Consecutive unacknowledged (re)transmissions before the destination is
  /// declared unreachable (mark_failed + unreachable callback).
  int max_retries = 10;
  /// Cap on selective-ACK entries carried by one flow_ack packet.
  std::size_t max_sack_entries = 16;
  /// Congestion control + striping policy (DESIGN.md §17). nullopt means
  /// "snapshot the fabric.cc / fabric.rails / fabric.stripe_threshold cvars
  /// at construction" — tests and benches that want a specific engine set
  /// this directly.
  std::optional<CcConfig> cc;
};

/// A chaos filter slot that is safe to install, swap, or clear while
/// traffic is in flight. Readers copy the shared_ptr so an in-progress
/// filter call survives a concurrent swap. Guarded by a mutex rather than
/// std::atomic<std::shared_ptr>: libstdc++'s lock-bit _Sp_atomic trips
/// ThreadSanitizer (the CI TSan job runs these suites), and the two
/// pointer ops in the critical section are invisible next to the modeled
/// wire time.
class FilterSlot {
 public:
  using Filter = std::function<bool(const Packet&)>;

  void set(Filter f) {
    auto next =
        f ? std::make_shared<const Filter>(std::move(f)) : nullptr;
    std::lock_guard lock(mu_);
    ptr_ = std::move(next);
  }
  [[nodiscard]] std::shared_ptr<const Filter> get() const {
    std::lock_guard lock(mu_);
    return ptr_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Filter> ptr_;
};

class Fabric {
 public:
  using PacketFilter = FilterSlot::Filter;

  Fabric(base::Topology topo, base::CostModel cost,
         ReliabilityConfig rel = {});
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Route a packet to its destination endpoint, injecting the modeled wire
  /// time on the calling (sender) thread. Throws Error(rte_bad_param) for an
  /// invalid destination. Sends to failed ranks are counted and dropped;
  /// chaos-dropped packets stay in the sender's unacked window and are
  /// retransmitted by the pump until acknowledged or retries are exhausted.
  void send(Packet&& packet);

  [[nodiscard]] Endpoint& endpoint(Rank r);
  [[nodiscard]] const base::Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const base::CostModel& cost_model() const noexcept {
    return cost_;
  }
  [[nodiscard]] const ReliabilityConfig& reliability() const noexcept {
    return rel_;
  }

  /// Failure injection: mark `r` unreachable.
  void mark_failed(Rank r);
  [[nodiscard]] bool is_failed(Rank r) const;

  /// Called (off the sender threads, from the pump) when retry exhaustion
  /// escalates a destination to unreachable — after mark_failed(r), so the
  /// callback observes the fabric's ground truth. The cluster wires this to
  /// the PMIx failure-event announcement.
  void set_unreachable_callback(std::function<void(Rank)> cb);

  /// Chaos hook: packets for which the filter returns true are dropped on
  /// the wire (lossy-link injection); the reliability layer retransmits
  /// them. Safe to install, swap, or clear while traffic is in flight
  /// (FilterSlot), so a chaos schedule can toggle lossiness mid-phase.
  void set_drop_filter(PacketFilter filter);

  /// Chaos hook: sequenced packets for which the filter returns true are
  /// held back and delivered by the pump one tick later, arriving behind
  /// packets sent after them (reordering injection). The receiver-side
  /// reorder buffer restores flow order before the inbox sees them. Same
  /// mid-run swap guarantees as set_drop_filter.
  void set_reorder_filter(PacketFilter filter);

  /// ECN hook: the sim installs a link-load model here; sequenced packets
  /// for which it returns true get the CE bit set (congestion experienced)
  /// and the receiver echoes ECE in its flow_acks, triggering a sender-side
  /// multiplicative decrease without waiting for loss (DESIGN.md §17).
  /// Same mid-run swap guarantees as the chaos filters.
  void set_ce_marker(PacketFilter marker);

  /// The congestion/striping policy this fabric resolved at construction.
  [[nodiscard]] const CcConfig& cc_config() const noexcept { return cc_; }

  /// Block until every unacked window, reorder buffer, held (reordered)
  /// packet, and pending ACK has drained, or `timeout` elapses. Returns
  /// true when fully quiesced. Tests and benches use this to wait out the
  /// retransmit tail of a lossy phase.
  bool quiesce(std::chrono::nanoseconds timeout);

  [[nodiscard]] std::uint64_t dropped_to_failed() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Packets discarded by the chaos drop filter (first sends + retransmits).
  [[nodiscard]] std::uint64_t chaos_dropped() const noexcept {
    return chaos_dropped_.load(std::memory_order_relaxed);
  }
  /// Bytes (headers + payload) that reached a destination endpoint. Lost
  /// packets count under bytes_dropped() instead, so loss never inflates
  /// the delivered-traffic totals the benchmarks report.
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  /// Bytes of packets lost on the wire (chaos-dropped or sent to a failed
  /// rank).
  [[nodiscard]] std::uint64_t bytes_dropped() const noexcept {
    return bytes_dropped_.load(std::memory_order_relaxed);
  }
  /// Timeout-driven retransmissions performed by the pump.
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return retransmits_.load(std::memory_order_relaxed);
  }
  /// Duplicate arrivals suppressed at receivers (retransmit-induced).
  [[nodiscard]] std::uint64_t dup_suppressed() const noexcept {
    return dup_suppressed_.load(std::memory_order_relaxed);
  }
  /// Retry-exhaustion escalations to an unreachable verdict.
  [[nodiscard]] std::uint64_t rto_escalations() const noexcept {
    return rto_escalations_.load(std::memory_order_relaxed);
  }
  /// Dup-ack/SACK-triggered retransmissions (loss repaired without an RTO).
  [[nodiscard]] std::uint64_t fast_retransmits() const noexcept {
    return fast_retransmits_.load(std::memory_order_relaxed);
  }
  /// Tail-loss probes: highest-unacked retransmissions fired after an ack
  /// silence, repairing tail losses dup-acks cannot see (adaptive only).
  [[nodiscard]] std::uint64_t tlp_probes() const noexcept {
    return tlp_probes_.load(std::memory_order_relaxed);
  }
  /// Packets the sim marked CE (congestion experienced on a modeled link).
  [[nodiscard]] std::uint64_t ecn_marks() const noexcept {
    return ecn_marks_.load(std::memory_order_relaxed);
  }
  /// Payload bytes of striped segments first-transmitted on `rail`
  /// (retransmits excluded), for the rail-imbalance gauge.
  [[nodiscard]] std::uint64_t rail_striped_bytes(int rail) const noexcept {
    return rail < 0 || rail >= kMaxRails
               ? 0
               : rail_striped_bytes_[static_cast<std::size_t>(rail)].load(
                     std::memory_order_relaxed);
  }
  /// Sequenced packets currently awaiting acknowledgment (all flows).
  [[nodiscard]] std::uint64_t unacked() const;

  /// Flight-recorder section body (obs::register_postmortem_section):
  /// one-line JSON of every live fabric's flows that still hold unacked or
  /// reordered packets — the state that explains an unreachable verdict.
  static void dump_flow_windows(std::ostream& os);

 private:
  /// Directed per-(src,dst,rail) flow state. tx_* is the sender-side
  /// unacked window (touched by src's threads and the pump); rx_* is the
  /// receiver-side dedup/reorder state (touched by delivering threads and
  /// the pump). One mutex guards both; it is never held across a wire
  /// delay, another flow's mutex, or an inbox wait (it IS held across the
  /// reassembly table's mutex — that lock order, flow then reassembly, is
  /// the only nesting). Each flow starts on its own cache line: flows are
  /// locked by different threads, and a neighbour's hot fields sharing a
  /// line with this flow's mutex made the 2x4 checkpoint restore ~10%
  /// slower when only the struct's size changed.
  struct alignas(64) Flow {
    Flow(Rank s, Rank d, std::uint8_t r, const CcConfig& cfg)
        : src(s), dst(d), rail(r), cc(cfg) {}
    const Rank src;
    const Rank dst;
    const std::uint8_t rail;  ///< rail id; non-zero only for striped traffic
    mutable std::mutex mu;
    // --- tx (packets src -> dst) ---
    std::uint64_t next_seq = 1;
    CcState cc;  ///< congestion window state machine (DESIGN.md §17)
    std::uint64_t last_cum_seen = 0;  ///< last explicit-ack cum (dup detect)
    struct Unacked {
      Packet pkt;
      base::Deadline deadline;
      std::int64_t rto_ns = 0;  ///< current (backed-off) RTO
      int retries = 0;
      /// Marked by a triple-dup/SACK verdict; the next pump pass
      /// retransmits immediately (no RTO wait, no backoff, no retry charge).
      bool fast_retx = false;
      /// Already fast-retransmitted once; further repair is RTO-only.
      bool fast_retxed = false;
      /// Completed pump passes when (re)armed. An entry only expires after
      /// BOTH the wall RTO and two further completed passes: ACKs are
      /// flushed by the pump itself, so when the pump is starved (e.g. an
      /// oversubscribed host where rank threads spin out wire delays),
      /// retransmitting early is pure waste — the original was delivered
      /// and its ACK simply hasn't been pumped yet.
      std::uint64_t armed_pass = 0;
    };
    std::map<std::uint64_t, Unacked> window;
    /// Wall clock of the last forward progress on the tx side — a newly
    /// windowed packet or an ack that retired one. The tail-loss probe
    /// timer (adaptive engines only) measures silence from here.
    std::int64_t last_progress_ns = 0;
    /// One tail-loss probe per silence episode; re-armed by ack progress.
    bool tlp_fired = false;
    // --- rx (same direction, state kept at dst) ---
    std::uint64_t cum_delivered = 0;  ///< highest contiguously delivered seq
    std::map<std::uint64_t, Packet> reorder;  ///< out-of-order arrivals
    bool ack_pending = false;  ///< new data since the last ACK we emitted
    bool ece_rx_pending = false;  ///< CE seen since the last ACK we emitted
  };

  /// One partially reassembled striped message at the receiver, keyed by
  /// (src,dst,msg_id). Segment byte ranges are derived from the stripe
  /// header, so segments can complete in any cross-rail order.
  struct PartialMessage {
    Payload buf;
    std::uint16_t segments_seen = 0;
  };

  /// Get-or-create the (src,dst,rail) flow. Flows materialize on first
  /// touch: preallocating topo.size()^2 of them costs tens of GB at 16k
  /// ranks, while real traffic touches O(active peer pairs). Created flows
  /// are never destroyed before the Fabric, so the returned reference (and
  /// the pointers in active_) stay valid for the fabric's lifetime.
  Flow& flow(Rank src, Rank dst, std::uint8_t rail = 0);
  /// Lookup without materializing (piggyback-ACK reads of the reverse
  /// flow: if it never existed, there is nothing to acknowledge).
  Flow* flow_if_exists(Rank src, Rank dst, std::uint8_t rail = 0) noexcept;
  /// Stable snapshot of every materialized flow (pump/quiesce iteration).
  std::vector<Flow*> active_flows() const;

  /// Put `pkt` on the wire: charge the cost model on the calling thread,
  /// apply failure/chaos/reorder filters, and deliver on survival. Returns
  /// true when the packet reached the destination's receive path.
  bool transmit(Packet&& pkt, bool charge_wire);
  /// Receiver-side processing on the destination's behalf: consume ACK
  /// state, dedup/reorder sequenced packets, push deliverables to the
  /// inbox.
  void deliver(Packet&& pkt);
  void push_to_inbox(Packet&& pkt);
  /// In-order release of one sequenced packet at the receiver: striped
  /// segments feed the reassembly table, everything else goes straight to
  /// the inbox. Called with the owning flow's mutex held.
  void release_in_order(Packet&& pkt);
  /// Merge a striped segment; pushes the logical message to the inbox once
  /// all its segments arrived.
  void reassemble(Packet&& seg);
  /// Apply a cumulative + selective ACK to the (src,dst,rail) sender
  /// window. `ece` echoes a CE mark; `is_explicit` distinguishes flow_acks
  /// (which drive dup-ack counting) from piggybacked data acks (which must
  /// not — data arrival order says nothing about ack duplication).
  void apply_ack(Rank src, Rank dst, std::uint8_t rail, std::uint64_t cum,
                 const std::vector<std::uint64_t>& sack, bool ece,
                 bool is_explicit);
  /// Block (cooperatively) until flow `f` has congestion window room, then
  /// assign the next seq and window the packet. Returns false when the
  /// destination died while waiting (the packet is charged and dropped).
  bool window_packet(Flow& f, Packet& packet, std::int64_t rto_ns);
  /// Split an at-or-above-threshold rndv_data across the configured rails.
  void send_striped(Packet&& packet);
  /// Start the RTO clock on window entry `seq` after its transmit returned
  /// (no-op when the entry was acknowledged mid-wire).
  void arm_entry(Rank src, Rank dst, std::uint8_t rail, std::uint64_t seq,
                 std::int64_t rto_ns);
  /// Emit one flow_ack for `f` if it has unacknowledged deliveries. ACK
  /// wire time is not charged: ACKs model piggybacked / NIC-offloaded
  /// reverse traffic (DESIGN.md §9).
  void flush_ack(Flow& f);
  void pump_main();
  /// One pump pass over every flow; returns true if any state remains.
  bool pump_pass();
  void escalate_unreachable(Rank dst);

  base::Topology topo_;
  base::CostModel cost_;
  ReliabilityConfig rel_;
  CcConfig cc_;  ///< resolved at construction (rel_.cc or the cvars)
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// Lazy flow table, sharded by (src,dst) hash to keep first-touch
  /// creation off a single global lock. Values are heap-owned so Flow*
  /// stays stable across rehashes.
  static constexpr std::size_t kFlowShards = 64;
  struct FlowShard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::unique_ptr<Flow>> flows;
  };
  std::array<FlowShard, kFlowShards> flow_shards_;
  /// Append-only registry of every materialized flow; the pump iterates
  /// this instead of all topo.size()^2 (src,dst) pairs.
  mutable std::mutex active_mu_;
  std::vector<Flow*> active_;
  std::vector<std::atomic<bool>> failed_;
  FilterSlot drop_filter_;
  FilterSlot reorder_filter_;
  FilterSlot ce_marker_;
  /// Receiver-side reassembly of striped messages, keyed
  /// (src,dst,msg_id). Locked after a flow mutex, never before one.
  std::mutex reass_mu_;
  std::map<std::array<std::uint64_t, 3>, PartialMessage> reassembly_;
  std::atomic<std::uint64_t> next_msg_id_{0};
  std::mutex unreachable_mu_;
  std::function<void(Rank)> unreachable_cb_;

  std::mutex held_mu_;
  std::vector<Packet> held_;  ///< reorder-injected packets awaiting a tick

  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> chaos_dropped_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_dropped_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> dup_suppressed_{0};
  std::atomic<std::uint64_t> rto_escalations_{0};
  std::atomic<std::uint64_t> fast_retransmits_{0};
  std::atomic<std::uint64_t> tlp_probes_{0};
  std::atomic<std::uint64_t> ecn_marks_{0};
  std::array<std::atomic<std::uint64_t>, kMaxRails> rail_striped_bytes_{};
  std::atomic<std::uint64_t> pump_passes_{0};  ///< completed pump passes

  std::atomic<bool> stop_{false};
  std::thread pump_;
};

}  // namespace sessmpi::fabric
