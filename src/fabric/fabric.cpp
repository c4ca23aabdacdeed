#include "sessmpi/fabric/fabric.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include <ostream>

#include "sessmpi/base/buffer_pool.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/base/yield.hpp"
#include "sessmpi/obs/hist.hpp"
#include "sessmpi/obs/postmortem.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::fabric {

namespace {

/// Async-event correlation id for one sequenced packet: the trace's
/// "fabric.inflight" span opens at windowing and closes when the ACK
/// erases the entry; retransmits reuse the id so they nest under the
/// owning send on the sender's timeline (DESIGN.md §11).
[[maybe_unused]] std::uint64_t flow_trace_id(Rank src, Rank dst,
                                             std::uint8_t rail,
                                             std::uint64_t seq) {
  return (static_cast<std::uint64_t>(src) << 48) |
         (static_cast<std::uint64_t>(dst) << 32) |
         (static_cast<std::uint64_t>(rail) << 30) | (seq & 0x3FFFFFFFu);
}

/// Live fabrics, for the process-wide `fabric.flow.inflight` gauge and the
/// flight-recorder flow-window section (several simulated clusters can
/// coexist in one test binary). Fabrics deregister first thing in their
/// destructor, so a reader holding reg.mu never sees a dying instance.
struct FabricRegistry {
  std::mutex mu;
  std::vector<Fabric*> live;
};

FabricRegistry& fabric_registry() {
  static FabricRegistry r;
  return r;
}

}  // namespace

void Fabric::dump_flow_windows(std::ostream& os) {
  // Postmortem section: every flow that still has unacked or reordered
  // packets — exactly the state that explains why a rank was declared
  // unreachable. Runs with reg.mu held (blocks fabric teardown) and takes
  // each flow's mutex briefly; callers of escalate_unreachable hold no
  // flow locks, so the failure-path trigger cannot self-deadlock here.
  FabricRegistry& reg = fabric_registry();
  std::lock_guard lock(reg.mu);
  std::uint64_t total_unacked = 0;
  std::size_t total_flows = 0;
  os << "{\"flows\":[";
  bool first = true;
  for (Fabric* fab : reg.live) {
    for (const Flow* f : fab->active_flows()) {
      std::lock_guard flock(f->mu);
      ++total_flows;
      total_unacked += f->window.size();
      if (f->window.empty() && f->reorder.empty()) {
        continue;
      }
      os << (first ? "" : ",") << "{\"src\":" << f->src
         << ",\"dst\":" << f->dst
         << ",\"rail\":" << static_cast<int>(f->rail)
         << ",\"next_seq\":" << f->next_seq
         << ",\"window\":" << f->window.size()
         << ",\"cum_delivered\":" << f->cum_delivered
         << ",\"reorder\":" << f->reorder.size();
      if (!f->cc.unlimited()) {
        // Congestion state is what explains a stalled flow: a collapsed
        // cwnd in recovery reads very differently from a full window
        // waiting on a dead peer.
        os << ",\"cc\":\"" << cc_engine_name(f->cc.engine())
           << "\",\"cwnd\":" << f->cc.cwnd_packets()
           << ",\"ssthresh\":" << f->cc.ssthresh() << ",\"state\":\""
           << cc_phase_name(f->cc.phase()) << "\"";
      }
      os << "}";
      first = false;
    }
  }
  os << "],\"total_flows\":" << total_flows
     << ",\"total_unacked\":" << total_unacked << "}";
}

Fabric::Fabric(base::Topology topo, base::CostModel cost, ReliabilityConfig rel)
    : topo_(topo),
      cost_(cost),
      rel_(rel),
      cc_(rel.cc ? *rel.cc : cc_config_from_cvars()),
      failed_(static_cast<std::size_t>(topo.size())) {
  cc_.rails = std::clamp(cc_.rails, 1, kMaxRails);
  const auto n = static_cast<std::size_t>(topo_.size());
  endpoints_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    endpoints_.push_back(std::make_unique<Endpoint>());
    failed_[i].store(false, std::memory_order_relaxed);
  }
  {
    FabricRegistry& reg = fabric_registry();
    std::lock_guard lock(reg.mu);
    reg.live.push_back(this);
  }
  // Expose the payload slab pool's effectiveness as an MPI_T-style gauge
  // (percent of acquires served from a freelist). Process-wide, registered
  // once no matter how many simulated clusters exist; same for the
  // in-flight window gauge and the flight-recorder flow-window section,
  // which sum over every live fabric via the registry.
  static std::once_flag pool_gauge_once;
  std::call_once(pool_gauge_once, [] {
    obs::register_pvar_gauge("fabric.pool_hit_rate", [] {
      return static_cast<std::uint64_t>(
          base::BufferPool::global().stats().hit_rate() * 100.0 + 0.5);
    });
    obs::register_pvar_gauge("fabric.flow.inflight", [] {
      FabricRegistry& reg = fabric_registry();
      std::lock_guard lock(reg.mu);
      std::uint64_t total = 0;
      for (const Fabric* fab : reg.live) {
        total += fab->unacked();
      }
      return total;
    });
    obs::register_postmortem_section("fabric.flows", Fabric::dump_flow_windows);
    // Mean congestion window (packets) over every adaptive flow; 0 when
    // all flows run the fixed engine.
    obs::register_pvar_gauge("fabric.cwnd", [] {
      FabricRegistry& reg = fabric_registry();
      std::lock_guard lock(reg.mu);
      std::uint64_t sum = 0;
      std::uint64_t count = 0;
      for (Fabric* fab : reg.live) {
        for (const Flow* f : fab->active_flows()) {
          std::lock_guard flock(f->mu);
          if (!f->cc.unlimited()) {
            sum += f->cc.cwnd_packets();
            ++count;
          }
        }
      }
      return count == 0 ? 0 : sum / count;
    });
    // Striped-byte spread across rails: (max-min)/max in percent. 0 means
    // balanced (or striping idle); a high value flags a rail whose losses
    // starved it.
    obs::register_pvar_gauge("fabric.rail_imbalance_pct", [] {
      FabricRegistry& reg = fabric_registry();
      std::lock_guard lock(reg.mu);
      std::array<std::uint64_t, kMaxRails> bytes{};
      for (const Fabric* fab : reg.live) {
        for (int r = 0; r < kMaxRails; ++r) {
          bytes[static_cast<std::size_t>(r)] += fab->rail_striped_bytes(r);
        }
      }
      int top = -1;
      for (int r = 0; r < kMaxRails; ++r) {
        if (bytes[static_cast<std::size_t>(r)] > 0) {
          top = r;
        }
      }
      if (top < 1) {
        return std::uint64_t{0};
      }
      std::uint64_t hi = 0;
      std::uint64_t lo = ~std::uint64_t{0};
      for (int r = 0; r <= top; ++r) {
        hi = std::max(hi, bytes[static_cast<std::size_t>(r)]);
        lo = std::min(lo, bytes[static_cast<std::size_t>(r)]);
      }
      return (hi - lo) * 100 / hi;
    });
  });
  pump_ = std::thread([this] { pump_main(); });
}

Fabric::~Fabric() {
  {
    // Deregister before any teardown so the gauge/section never walk a
    // half-destroyed instance.
    FabricRegistry& reg = fabric_registry();
    std::lock_guard lock(reg.mu);
    std::erase(reg.live, this);
  }
  stop_.store(true, std::memory_order_release);
  if (pump_.joinable()) {
    pump_.join();
  }
}

namespace {
inline std::uint64_t flow_key(Rank src, Rank dst, std::uint8_t rail) noexcept {
  // 30 bits per rank (sim tops out far below 2^30) + the rail in the top
  // bits, so every (src,dst,rail) triple owns a distinct flow.
  return (static_cast<std::uint64_t>(rail) << 60) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) &
           0x3FFFFFFFu)
          << 30) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) &
          0x3FFFFFFFu);
}
}  // namespace

Fabric::Flow& Fabric::flow(Rank src, Rank dst, std::uint8_t rail) {
  const std::uint64_t key = flow_key(src, dst, rail);
  FlowShard& shard = flow_shards_[key % kFlowShards];
  {
    std::lock_guard lock(shard.mu);
    auto it = shard.flows.find(key);
    if (it != shard.flows.end()) {
      return *it->second;
    }
  }
  auto fresh = std::make_unique<Flow>(src, dst, rail, cc_);
  Flow* raw = fresh.get();
  {
    std::lock_guard lock(shard.mu);
    auto [it, inserted] = shard.flows.emplace(key, std::move(fresh));
    if (!inserted) {
      return *it->second;  // lost the creation race
    }
  }
  std::lock_guard lock(active_mu_);
  active_.push_back(raw);
  return *raw;
}

Fabric::Flow* Fabric::flow_if_exists(Rank src, Rank dst,
                                     std::uint8_t rail) noexcept {
  const std::uint64_t key = flow_key(src, dst, rail);
  FlowShard& shard = flow_shards_[key % kFlowShards];
  std::lock_guard lock(shard.mu);
  auto it = shard.flows.find(key);
  return it == shard.flows.end() ? nullptr : it->second.get();
}

std::vector<Fabric::Flow*> Fabric::active_flows() const {
  std::lock_guard lock(active_mu_);
  return active_;
}

Endpoint& Fabric::endpoint(Rank r) {
  if (!topo_.valid_rank(r)) {
    throw base::Error(base::ErrClass::rte_bad_param,
                      "invalid rank for endpoint lookup");
  }
  return *endpoints_[static_cast<std::size_t>(r)];
}

void Fabric::set_unreachable_callback(std::function<void(Rank)> cb) {
  std::lock_guard lock(unreachable_mu_);
  unreachable_cb_ = std::move(cb);
}

void Fabric::set_drop_filter(PacketFilter filter) {
  drop_filter_.set(std::move(filter));
}

void Fabric::set_reorder_filter(PacketFilter filter) {
  reorder_filter_.set(std::move(filter));
}

void Fabric::set_ce_marker(PacketFilter marker) {
  ce_marker_.set(std::move(marker));
}

// ---------------------------------------------------------------------------
// Send path (sender thread)
// ---------------------------------------------------------------------------

void Fabric::send(Packet&& packet) {
  if (!topo_.valid_rank(packet.dst_rank) || !topo_.valid_rank(packet.src_rank)) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid packet route");
  }
  if (is_failed(packet.dst_rank)) {
    // A known-dead destination is not a loss event for the reliability
    // layer: the packet is charged (occupancy only — nothing arrives, so
    // no flight latency is modeled), counted, and forgotten (no window).
    const std::size_t sz = packet.header_bytes() + packet.payload.size();
    base::precise_delay(cost_.wire_occupancy(
        topo_.same_node(packet.src_rank, packet.dst_rank),
        packet.payload.size(), packet.header_bytes()));
    dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(sz, std::memory_order_relaxed);
    return;
  }
  if (!packet.is_sequenced()) {
    transmit(std::move(packet), /*charge_wire=*/true);
    return;
  }
  if (cc_.rails > 1 && packet.kind == PacketKind::rndv_data &&
      !packet.is_striped() &&
      packet.payload.size() >= cc_.stripe_threshold) {
    // Bulk rendezvous data is the only striped kind: it is matched by
    // token, not arrival order, so per-rail flows cannot reorder it past
    // the MPI non-overtaking guarantee the eager/RTS path depends on.
    send_striped(std::move(packet));
    return;
  }

  const Rank src = packet.src_rank;
  const Rank dst = packet.dst_rank;
  OBS_SPAN_ARG("fabric.send", "fabric", packet.payload.size());
  // Piggyback the cumulative ACK for the reverse flow (data we received
  // from dst). Deliberately does NOT clear the reverse flow's ack_pending:
  // this packet may spend a long wall time on the wire (or be chaos-
  // dropped), and ACK state that exists only in flight is exactly what
  // causes spurious retransmits. The pump's explicit flow_ack is the
  // ground truth; the piggyback just retires windows earlier for free.
  // Piggybacks always describe the rail-0 reverse flow — control and eager
  // traffic ride rail 0; striped rails are acked by explicit flow_acks.
  if (Flow* rev = flow_if_exists(dst, src)) {
    std::lock_guard lock(rev->mu);
    packet.flow.ack = rev->cum_delivered;
  }
  const std::int64_t rto_ns =
      rel_.rto_base_ns + cost_.wire_cost(topo_.same_node(src, dst),
                                         packet.payload.size(),
                                         packet.header_bytes());
  Flow& f = flow(src, dst);
  if (!window_packet(f, packet, rto_ns)) {
    return;  // destination died while we waited for window room
  }
  const std::uint64_t seq = packet.flow.seq;
  OBS_ASYNC_BEGIN(src, "fabric.inflight", "fabric",
                  flow_trace_id(src, dst, 0, seq), seq);
  transmit(std::move(packet), /*charge_wire=*/true);
  arm_entry(src, dst, 0, seq, rto_ns);
}

bool Fabric::window_packet(Flow& f, Packet& packet, std::int64_t rto_ns) {
  for (;;) {
    {
      std::lock_guard lock(f.mu);
      // Teardown overrides the window: with the pump stopping there may be
      // nobody left to flush the ACKs that would open it.
      if (f.cc.can_send(f.window.size()) ||
          stop_.load(std::memory_order_relaxed)) {
        packet.flow.seq = f.next_seq++;
        packet.flow.rail = f.rail;
        Flow::Unacked& entry = f.window[packet.flow.seq];
        entry.pkt = packet;  // retained for retransmission; the refcounted
                             // Payload makes this a header-only copy
        entry.rto_ns = rto_ns;
        entry.retries = 0;
        // Parked until the caller's transmit returns: the RTO clock must
        // start when the packet actually left the wire, not when it was
        // windowed — on an oversubscribed host the sending thread can be
        // descheduled mid-spin for longer than the whole RTO.
        entry.deadline.arm_never();
        // New data in flight opens a fresh silence episode for the
        // tail-loss probe timer.
        f.last_progress_ns = base::now_ns();
        f.tlp_fired = false;
        return true;
      }
    }
    if (is_failed(f.dst)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      bytes_dropped_.fetch_add(packet.header_bytes() + packet.payload.size(),
                               std::memory_order_relaxed);
      return false;
    }
    if (base::cooperative()) {
      base::try_yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

void Fabric::send_striped(Packet&& packet) {
  const Rank src = packet.src_rank;
  const Rank dst = packet.dst_rank;
  const std::size_t total = packet.payload.size();
  const auto nseg = static_cast<std::size_t>(cc_.rails);
  OBS_SPAN_ARG("fabric.send_striped", "fabric", total);
  std::uint64_t rev_cum = 0;
  if (Flow* rev = flow_if_exists(dst, src)) {
    std::lock_guard lock(rev->mu);
    rev_cum = rev->cum_delivered;
  }
  const bool same_node = topo_.same_node(src, dst);
  const std::uint64_t msg_id =
      next_msg_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t base_len = total / nseg;
  const std::size_t rem = total % nseg;
  struct Seg {
    Packet pkt;
    std::int64_t rto_ns;
  };
  std::vector<Seg> segs;
  segs.reserve(nseg);
  std::int64_t max_occupancy = 0;
  std::size_t off = 0;
  for (std::size_t r = 0; r < nseg; ++r) {
    const std::size_t len = base_len + (r < rem ? 1 : 0);
    Packet seg;
    seg.kind = packet.kind;
    seg.src_rank = src;
    seg.dst_rank = dst;
    seg.match = packet.match;
    seg.ext = packet.ext;
    seg.token = packet.token;
    seg.advertised_size = packet.advertised_size;
    seg.stripe.msg_id = msg_id;
    seg.stripe.index = static_cast<std::uint16_t>(r);
    seg.stripe.count = static_cast<std::uint16_t>(nseg);
    seg.stripe.total_bytes = static_cast<std::uint32_t>(total);
    seg.payload = packet.payload.slice(off, len);  // zero-copy slab share
    seg.flow.ack = rev_cum;
    off += len;
    const std::size_t hdr = seg.header_bytes();
    max_occupancy =
        std::max(max_occupancy, cost_.wire_occupancy(same_node, len, hdr));
    const std::int64_t rto =
        rel_.rto_base_ns + cost_.wire_cost(same_node, len, hdr);
    Flow& f = flow(src, dst, static_cast<std::uint8_t>(r));
    if (!window_packet(f, seg, rto)) {
      return;  // dst died mid-stripe; the pump GCs the windowed segments
    }
    rail_striped_bytes_[r].fetch_add(len, std::memory_order_relaxed);
    OBS_ASYNC_BEGIN(src, "fabric.inflight", "fabric",
                    flow_trace_id(src, dst, seg.flow.rail, seg.flow.seq),
                    seg.flow.seq);
    segs.push_back({std::move(seg), rto});
  }
  // Rails are parallel paths: the sending thread pays the occupancy of its
  // busiest rail once, not the sum — that is the whole point of striping.
  // Arrival deadlines are pre-stamped so transmit() (charge_wire=false)
  // leaves the parallel-wire model intact per segment.
  base::precise_delay(max_occupancy);
  const std::int64_t arrival = base::now_ns() + cost_.wire_latency(same_node);
  for (Seg& s : segs) {
    const std::uint8_t rail = s.pkt.flow.rail;
    const std::uint64_t seq = s.pkt.flow.seq;
    s.pkt.arrival_ns = arrival;
    transmit(std::move(s.pkt), /*charge_wire=*/false);
    arm_entry(src, dst, rail, seq, s.rto_ns);
  }
}

/// Start (or restart) the RTO clock on a window entry after its transmit
/// completed. The entry may already be gone — acknowledged while the wire
/// time was being charged — in which case there is nothing to time.
void Fabric::arm_entry(Rank src, Rank dst, std::uint8_t rail,
                       std::uint64_t seq, std::int64_t rto_ns) {
  Flow& f = flow(src, dst, rail);
  std::lock_guard lock(f.mu);
  auto it = f.window.find(seq);
  if (it == f.window.end()) {
    return;
  }
  it->second.rto_ns = rto_ns;
  it->second.deadline.arm(base::now_ns(), rto_ns);
  it->second.armed_pass = pump_passes_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Wire + receive path
// ---------------------------------------------------------------------------

bool Fabric::transmit(Packet&& pkt, bool charge_wire) {
  const std::size_t header = pkt.header_bytes();
  const std::size_t payload = pkt.payload.size();
  const std::size_t sz = header + payload;
  if (charge_wire) {
    // Pipelined LogGP wire model: the sending thread pays only its
    // occupancy (gap + serialization); the one-way latency elapses "in
    // flight" — the packet is stamped with its arrival deadline and the
    // receiver's dispatch loop waits it out. Back-to-back sends therefore
    // overlap their latencies (message rate ~ 1/gap), matching how real
    // windowed osu_mbw_mr rates exceed 1/latency.
    const bool same_node = topo_.same_node(pkt.src_rank, pkt.dst_rank);
    base::precise_delay(cost_.wire_occupancy(same_node, payload, header));
    pkt.arrival_ns = base::now_ns() + cost_.wire_latency(same_node);
  }
  if (is_failed(pkt.dst_rank)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(sz, std::memory_order_relaxed);
    return false;
  }
  if (pkt.is_sequenced()) {
    // ECN: the sim's link-load model charges this packet against its
    // modeled link and answers whether the backlog crossed the marking
    // threshold. Runs before the drop filter — a packet lost in flight
    // still occupied the link. flow_acks are exempt (unsequenced, and an
    // echo of an echo would be meaningless).
    if (auto marker = ce_marker_.get(); marker && (*marker)(pkt)) {
      pkt.flow.ce = true;
      ecn_marks_.fetch_add(1, std::memory_order_relaxed);
      static const auto ce_counter = base::counter("fabric.ecn_marks");
      ce_counter.add();
      OBS_INSTANT_ON(pkt.src_rank, "fabric.ecn.mark", "fabric", pkt.flow.seq);
    }
  }
  if (auto filter = drop_filter_.get(); filter && (*filter)(pkt)) {
    chaos_dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(sz, std::memory_order_relaxed);
    static const auto chaos_drops_counter =
        base::counter("fabric.chaos.dropped");
    chaos_drops_counter.add();
    OBS_INSTANT_ON(pkt.src_rank, "fabric.chaos_drop", "fabric", pkt.flow.seq);
    return false;
  }
  bytes_sent_.fetch_add(sz, std::memory_order_relaxed);
  if (pkt.is_sequenced()) {
    if (auto filter = reorder_filter_.get(); filter && (*filter)(pkt)) {
      // Reordering injection: hold the packet back one pump tick so later
      // traffic overtakes it on the wire.
      static const auto reorders_counter = base::counter("fabric.reordered");
      reorders_counter.add();
      std::lock_guard lock(held_mu_);
      held_.push_back(std::move(pkt));
      return true;
    }
  }
  deliver(std::move(pkt));
  return true;
}

void Fabric::apply_ack(Rank src, Rank dst, std::uint8_t rail,
                       std::uint64_t cum,
                       const std::vector<std::uint64_t>& sack, bool ece,
                       bool is_explicit) {
  Flow& f = flow(src, dst, rail);
  std::lock_guard lock(f.mu);
  std::uint64_t newly_acked = 0;
  auto stop = f.window.upper_bound(cum);
  for (auto it = f.window.begin(); it != stop; ++it) {
    OBS_ASYNC_END(src, "fabric.inflight", "fabric",
                  flow_trace_id(src, dst, rail, it->first));
    ++newly_acked;
  }
  f.window.erase(f.window.begin(), stop);
  for (std::uint64_t s : sack) {
    if (f.window.erase(s) != 0) {
      OBS_ASYNC_END(src, "fabric.inflight", "fabric",
                    flow_trace_id(src, dst, rail, s));
      ++newly_acked;
    }
  }
  if (f.cc.unlimited()) {
    return;  // fixed engine: the ack bookkeeping above is all there is
  }
  const std::int64_t now = base::now_ns();
  const std::uint64_t highest_sent = f.next_seq - 1;
  if (newly_acked > 0) {
    f.cc.on_acked(newly_acked, cum);
    f.last_progress_ns = now;
    f.tlp_fired = false;
  }
  if (ece && is_explicit) {
    const std::uint64_t before = f.cc.cwnd_packets();
    f.cc.on_ecn_echo(cum, highest_sent);
    if (f.cc.cwnd_packets() < before) {
      static const auto ecn_dec_counter =
          base::counter("fabric.ecn_decreases");
      ecn_dec_counter.add();
      OBS_INSTANT_ON(src, "fabric.ecn.decrease", "fabric",
                     f.cc.cwnd_packets());
    }
  }
  if (!is_explicit) {
    // Piggybacked data acks retire windows but never count as duplicates:
    // data arrival order says nothing about receiver-side holes.
    f.last_cum_seen = std::max(f.last_cum_seen, cum);
    return;
  }
  bool mark_holes = false;
  if (cum == f.last_cum_seen && !sack.empty() && !f.window.empty() &&
      highest_sent > cum) {
    // Duplicate ack: the cumulative edge is stuck while the receiver holds
    // out-of-order data — evidence of a hole, i.e. loss. The third one
    // triggers fast retransmit + fast recovery (CcState decides).
    mark_holes = f.cc.on_dup_ack(highest_sent);
  } else if (f.cc.phase() == CcPhase::recovery && newly_acked > 0 &&
             cum < f.cc.recover_seq()) {
    // NewReno partial ack: the edge moved but not past the loss episode —
    // the next hole starts right after it; plug it without three more dups.
    mark_holes = true;
  }
  f.last_cum_seen = std::max(f.last_cum_seen, cum);
  if (!mark_holes) {
    return;
  }
  // Fast-retransmit the SACK holes: unacked entries below the highest
  // SACKed seq that the receiver did not report holding. Each hole is
  // fast-retransmitted at most once; if the repair is lost too, the RTO
  // path takes over.
  const std::uint64_t upper =
      sack.empty() ? cum + 1 : *std::max_element(sack.begin(), sack.end());
  for (auto& [seq, entry] : f.window) {
    if (seq > upper) {
      break;
    }
    if (entry.fast_retx || entry.fast_retxed) {
      continue;
    }
    if (std::find(sack.begin(), sack.end(), seq) != sack.end()) {
      continue;
    }
    entry.fast_retx = true;
  }
}

void Fabric::push_to_inbox(Packet&& pkt) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(pkt.dst_rank)];
  ep.delivered_.fetch_add(1, std::memory_order_relaxed);
  ep.inbox_.push(std::move(pkt));
}

void Fabric::deliver(Packet&& pkt) {
  // Any packet X->Y carrying an ACK acknowledges the reverse flow (Y->X):
  // explicit flow_acks name their rail and may echo ECN; piggybacked
  // cumulative ACKs on data packets always describe the rail-0 reverse
  // flow and never drive dup-ack counting.
  if (pkt.kind == PacketKind::flow_ack) {
    apply_ack(pkt.dst_rank, pkt.src_rank, pkt.flow.rail, pkt.flow.ack,
              pkt.sack, pkt.flow.ece, /*is_explicit=*/true);
    return;  // fabric-internal: never reaches the inbox
  }
  if (pkt.flow.ack > 0) {
    apply_ack(pkt.dst_rank, pkt.src_rank, /*rail=*/0, pkt.flow.ack, {},
              /*ece=*/false, /*is_explicit=*/false);
  }

  Flow& f = flow(pkt.src_rank, pkt.dst_rank, pkt.flow.rail);
  {
    std::lock_guard lock(f.mu);
    // Remember a CE mark until the next flow_ack echoes it (ECE) back to
    // the sender. Duplicates carry the bit too — congestion is congestion.
    f.ece_rx_pending = f.ece_rx_pending || pkt.flow.ce;
    const std::uint64_t seq = pkt.flow.seq;
    if (seq <= f.cum_delivered || f.reorder.count(seq) != 0) {
      // Retransmit-induced duplicate: suppress, but re-arm the ACK so the
      // sender's window entry retires.
      dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
      static const auto dups_counter = base::counter("fabric.dup_suppressed");
      dups_counter.add();
      f.ack_pending = true;
    } else if (seq == f.cum_delivered + 1) {
      release_in_order(std::move(pkt));
      f.cum_delivered = seq;
      // Release any contiguous run the gap was holding back.
      auto it = f.reorder.begin();
      while (it != f.reorder.end() && it->first == f.cum_delivered + 1) {
        release_in_order(std::move(it->second));
        f.cum_delivered = it->first;
        it = f.reorder.erase(it);
      }
      f.ack_pending = true;
    } else {
      f.reorder.emplace(seq, std::move(pkt));
      f.ack_pending = true;
    }
  }
  // aimd is ack-clocked: the sender cannot grow or refill its cwnd until
  // acknowledgments arrive, so batching acks to the pump tick would
  // quantize the whole flow to tick granularity. Echo an ack per segment
  // (TCP-style), which also makes dup-acks — the fast-retransmit trigger —
  // immediate instead of up-to-a-tick late. The fixed engine keeps the
  // batched pump ack: it is not ack-clocked.
  if (cc_.engine != CcEngine::fixed) {
    flush_ack(f);
  }
}

void Fabric::release_in_order(Packet&& pkt) {
  if (pkt.is_striped()) {
    reassemble(std::move(pkt));
    return;
  }
  push_to_inbox(std::move(pkt));
}

void Fabric::reassemble(Packet&& seg) {
  // Per-rail flows guarantee in-order, exactly-once segment release; this
  // merge only has to scatter each segment's bytes to its deterministic
  // offset and count arrivals. Lock order: the caller holds the releasing
  // flow's mutex; reass_mu_ nests inside it and is never taken first.
  const std::size_t count = seg.stripe.count;
  const std::size_t total = seg.stripe.total_bytes;
  const std::size_t idx = seg.stripe.index;
  const std::size_t base_len = total / count;
  const std::size_t rem = total % count;
  const std::size_t off = idx * base_len + std::min(idx, rem);
  const std::size_t len =
      std::min(seg.payload.size(), base_len + (idx < rem ? 1 : 0));
  const std::array<std::uint64_t, 3> key{
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(seg.src_rank)),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(seg.dst_rank)),
      seg.stripe.msg_id};
  Packet done;
  {
    std::lock_guard lock(reass_mu_);
    PartialMessage& pm = reassembly_[key];
    if (pm.buf.size() != total) {
      pm.buf.resize(total);  // fresh buffer: not a counted payload copy
    }
    if (len > 0) {
      std::memcpy(pm.buf.data() + off, seg.payload.data(), len);
    }
    if (++pm.segments_seen < count) {
      return;
    }
    done = std::move(seg);
    done.payload = std::move(pm.buf);
    done.stripe = StripeHeader{};
    reassembly_.erase(key);
  }
  OBS_INSTANT_ON(done.dst_rank, "fabric.stripe.assembled", "fabric",
                 static_cast<std::uint64_t>(total));
  push_to_inbox(std::move(done));
}

// ---------------------------------------------------------------------------
// Pump: batched ACKs, timeout-driven retransmission, escalation
// ---------------------------------------------------------------------------

void Fabric::flush_ack(Flow& f) {
  const Rank src = f.src;
  const Rank dst = f.dst;
  Packet ack;
  {
    std::lock_guard lock(f.mu);
    if (!f.ack_pending) {
      return;
    }
    f.ack_pending = false;
    ack.kind = PacketKind::flow_ack;
    ack.src_rank = dst;  // the ACK travels receiver -> sender
    ack.dst_rank = src;
    ack.flow.ack = f.cum_delivered;
    ack.flow.rail = f.rail;  // names the flow being acknowledged
    ack.flow.ece = f.ece_rx_pending;  // echo CE marks seen since last ack
    f.ece_rx_pending = false;
    for (const auto& [seq, held] : f.reorder) {
      if (ack.sack.size() >= rel_.max_sack_entries) {
        break;
      }
      ack.sack.push_back(seq);
    }
  }
  static const auto acks_counter = base::counter("fabric.acks");
  acks_counter.add();
  // v = cumulative ack; v2 = SACK summary, count<<48 | lowest held seq
  // (48 bits of seq is plenty for a sim run; 0 = no out-of-order ranges).
  [[maybe_unused]] const std::uint64_t sack_ranges =
      ack.sack.empty() ? 0
                       : (static_cast<std::uint64_t>(ack.sack.size()) << 48) |
                             (ack.sack.front() & 0xFFFFFFFFFFFFull);
  OBS_INSTANT_ON2(dst, "fabric.ack.flush", "fabric", ack.flow.ack,
                  sack_ranges);
  // ACK wire time is not charged: ACKs model piggybacked / NIC-offloaded
  // reverse traffic, keeping the pump from serializing behind wire delays.
  transmit(std::move(ack), /*charge_wire=*/false);
}

void Fabric::escalate_unreachable(Rank dst) {
  if (is_failed(dst)) {
    return;
  }
  mark_failed(dst);
  rto_escalations_.fetch_add(1, std::memory_order_relaxed);
  static const auto escalations_counter =
      base::counter("fabric.rto_escalations");
  escalations_counter.add();
  OBS_INSTANT_ON(dst, "fabric.rto_escalate", "fabric",
                 static_cast<std::uint64_t>(dst));
  // Flight recorder: an unreachable verdict is a root-cause moment — dump
  // before the unreachable callback cascades into revokes and sweeps.
  obs::trigger_postmortem("rto_escalation");
  std::function<void(Rank)> cb;
  {
    std::lock_guard lock(unreachable_mu_);
    cb = unreachable_cb_;
  }
  if (cb) {
    cb(dst);
  }
}

bool Fabric::pump_pass() {
  const std::int64_t now = base::now_ns();
  const std::uint64_t pass = pump_passes_.load(std::memory_order_relaxed);
  bool busy = false;
  struct RetransmitItem {
    Packet pkt;
    std::uint64_t seq;
    std::int64_t rto_ns;
    bool fast;  ///< dup-ack/SACK-triggered, not an RTO expiry
    bool tlp = false;  ///< tail-loss probe (keeps the original RTO running)
  };
  std::vector<RetransmitItem> to_retransmit;
  std::vector<Rank> to_escalate;

  // Reorder-injected packets held for one tick go out first: they are
  // already past the loss filters and only awaited their delay.
  std::vector<Packet> held;
  {
    std::lock_guard lock(held_mu_);
    held.swap(held_);
  }
  for (Packet& p : held) {
    deliver(std::move(p));
  }

  // Only flows that have ever carried traffic exist: the scan is O(active
  // peer pairs) per tick, not O(topo.size()^2).
  const std::vector<Flow*> flows = active_flows();
  for (Flow* fp : flows) {
    Flow& f = *fp;
    bool escalate = false;
    {
      std::lock_guard lock(f.mu);
      if (is_failed(f.dst) || is_failed(f.src)) {
        // A dead endpoint ends the flow: a crashed process neither
        // retransmits nor fills receive-window gaps.
        f.window.clear();
        f.reorder.clear();
        f.ack_pending = false;
        continue;
      }
      bool rto_fired = false;
      for (auto& [seq, entry] : f.window) {
        if (entry.fast_retx) {
          // Dup-ack verdict from apply_ack: retransmit now — no RTO wait,
          // no backoff doubling, no retry charge (fast retransmit is
          // repair, not evidence the peer is gone).
          entry.fast_retx = false;
          entry.fast_retxed = true;
          entry.deadline.arm_never();
          to_retransmit.push_back({entry.pkt, seq, entry.rto_ns, true});
          continue;
        }
        // Expiry needs the wall RTO AND two completed passes since the
        // entry was (re)armed: every pass flushes every flow's ACKs, so
        // anything delivered before the previous pass has been acked and
        // erased by now — what's left is genuinely lost, not merely
        // waiting on a starved pump.
        if (!entry.deadline.expired(now) || pass < entry.armed_pass + 2) {
          continue;
        }
        if (entry.retries >= rel_.max_retries) {
          escalate = true;
          break;
        }
        ++entry.retries;
        entry.rto_ns = std::min(entry.rto_ns * 2, rel_.rto_cap_ns);
        // Parked while the copy below waits its turn on the wire; the
        // retransmit loop re-arms it once its transmit returns.
        entry.deadline.arm_never();
        to_retransmit.push_back({entry.pkt, seq, entry.rto_ns, false});
        rto_fired = true;
      }
      if (rto_fired && !f.cc.unlimited()) {
        // One window collapse per pass, however many entries expired —
        // they are all the same loss episode (CcState guards besides).
        f.cc.on_rto(f.next_seq - 1);
      }
      if (!f.cc.unlimited() && !f.window.empty() && !f.tlp_fired &&
          !rto_fired) {
        // Tail-loss probe (RACK-TLP style): a tail loss — the last packet
        // of a burst, or the repair of an already-fast-retransmitted hole
        // — generates no dup-acks, so SACK recovery cannot see it and the
        // flow would idle out the full RTO. After a short ack silence,
        // retransmit the highest unacked seq once: if the tail was lost
        // this repairs it directly, and otherwise the duplicate provokes
        // an immediate SACK ack that restarts dup-ack recovery. The
        // probe leaves RTO deadlines, retry budgets, and cwnd untouched —
        // it is a probe, not a loss verdict. A tail still parked behind
        // its first transmit has not left the wire yet, so its silence is
        // the sender's, not the network's: probing it would only put a
        // duplicate ahead of the original.
        const std::int64_t tlp_ns = std::max<std::int64_t>(
            2 * rel_.tick_ns, rel_.rto_base_ns / 8);
        auto& last = *std::prev(f.window.end());
        if (now - f.last_progress_ns >= tlp_ns &&
            !last.second.deadline.parked()) {
          f.tlp_fired = true;
          to_retransmit.push_back(
              {last.second.pkt, last.first, last.second.rto_ns,
               /*fast=*/false, /*tlp=*/true});
        }
      }
      busy = busy || !f.window.empty() || !f.reorder.empty() ||
             f.ack_pending;
    }
    if (escalate) {
      to_escalate.push_back(f.dst);
    }
  }

  for (Rank d : to_escalate) {
    escalate_unreachable(d);
  }
  for (RetransmitItem& item : to_retransmit) {
    if (is_failed(item.pkt.dst_rank)) {
      continue;
    }
    // Every retransmission — RTO- or dup-ack-triggered, and per striped
    // segment, not per logical message — charges fabric.retransmits, so
    // counter-based CI gates stay truthful under striping.
    retransmits_.fetch_add(1, std::memory_order_relaxed);
    static const auto retx_counter = base::counter("fabric.retransmits");
    retx_counter.add();
    if (item.tlp) {
      tlp_probes_.fetch_add(1, std::memory_order_relaxed);
      static const auto tlp_counter = base::counter("fabric.tlp_probes");
      tlp_counter.add();
      OBS_INSTANT_ON(item.pkt.src_rank, "fabric.tlp_probe", "fabric",
                     item.seq);
    } else if (item.fast) {
      fast_retransmits_.fetch_add(1, std::memory_order_relaxed);
      static const auto fast_counter =
          base::counter("fabric.fast_retransmits");
      fast_counter.add();
      OBS_INSTANT_ON(item.pkt.src_rank, "fabric.fast_retx", "fabric",
                     item.seq);
    } else {
      static obs::Histogram& rto_hist =
          obs::histogram("fabric.rto_backoff_ns");
      rto_hist.record(static_cast<std::uint64_t>(item.rto_ns));
    }
    const Rank s = item.pkt.src_rank;
    const Rank d = item.pkt.dst_rank;
    const std::uint8_t rail = item.pkt.flow.rail;
    // Retransmits occupy the wire like any send; charging them here (on the
    // pump thread) makes benchmarks see the latency cost of loss. The trace
    // charges them to the sending rank's track, nested (same async id)
    // under the owning fabric.inflight span.
    [[maybe_unused]] const std::uint64_t trace_id =
        flow_trace_id(s, d, rail, item.seq);
    [[maybe_unused]] const std::uint64_t retx_bytes =
        item.pkt.payload.size() + item.pkt.header_bytes();
    OBS_ASYNC_BEGIN2(s, "fabric.retransmit", "fabric", trace_id, item.seq,
                     retx_bytes);
    transmit(std::move(item.pkt), /*charge_wire=*/true);
    OBS_ASYNC_END(s, "fabric.retransmit", "fabric", trace_id);
    if (!item.tlp) {
      // A probe is speculative: the original RTO keeps running so a lost
      // probe costs nothing extra. Real retransmits restart the clock.
      arm_entry(s, d, rail, item.seq, item.rto_ns);
    }
  }

  for (Flow* fp : flows) {
    flush_ack(*fp);
  }
  pump_passes_.fetch_add(1, std::memory_order_relaxed);
  return busy || !held.empty();
}

void Fabric::pump_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    pump_pass();
    std::this_thread::sleep_for(std::chrono::nanoseconds(rel_.tick_ns));
  }
}

bool Fabric::quiesce(std::chrono::nanoseconds timeout) {
  const std::int64_t deadline = base::now_ns() + timeout.count();
  for (;;) {
    bool busy;
    {
      std::lock_guard lock(held_mu_);
      busy = !held_.empty();
    }
    if (!busy) {
      const std::vector<Flow*> flows = active_flows();
      busy = std::any_of(flows.begin(), flows.end(), [](const Flow* f) {
        std::lock_guard lock(f->mu);
        return !f->window.empty() || !f->reorder.empty() || f->ack_pending;
      });
    }
    if (!busy) {
      return true;
    }
    if (base::now_ns() >= deadline) {
      return false;
    }
    if (base::cooperative()) {
      base::try_yield();
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(rel_.tick_ns));
    }
  }
}

std::uint64_t Fabric::unacked() const {
  std::uint64_t total = 0;
  for (const Flow* f : active_flows()) {
    std::lock_guard lock(f->mu);
    total += f->window.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Failure flags
// ---------------------------------------------------------------------------

void Fabric::mark_failed(Rank r) {
  if (topo_.valid_rank(r)) {
    failed_[static_cast<std::size_t>(r)].store(true, std::memory_order_release);
  }
}

bool Fabric::is_failed(Rank r) const {
  return topo_.valid_rank(r) &&
         failed_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
}

}  // namespace sessmpi::fabric
