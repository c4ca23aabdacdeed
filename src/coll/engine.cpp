// Topology-aware hierarchical collective engine (DESIGN.md §13).
//
// Every blocking collective on Communicator dispatches here. A cached
// per-communicator Plan (plan.hpp) splits the communicator into nodes;
// inside a node the ranks-are-threads simulation lets a writer expose its
// own buffer through a NodeShared slot and every on-node reader consume it
// in place (shm.hpp release protocol) — a faithful stand-in for the
// XPMEM-mapped single-copy path of an XHC-style component. Only node
// leaders touch the fabric, so cross-node traffic drops from O(ranks) to
// O(nodes) messages and the on-node payload is moved zero times.
//
// Selection: the "coll.algorithm" cvar forces flat/hier globally; "auto"
// (default) goes hierarchical whenever some node hosts more than one
// member. Within the hierarchical allreduce the leader exchange picks
// recursive doubling for small payloads and a pipelined ring
// (reduce-scatter + allgather) for large ones.
//
// Failure handling: blocking pt2pt throws on peer death/revocation; shm
// waits poll liveness and the region poison. Any abort poisons the
// region (sticky, first cause wins) so on-node peers spinning on a slot
// fail fast with the same error class instead of hanging — every cause is
// terminal for the communicator in the ULFM model, which is what makes
// the sticky form safe.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "detail/state.hpp"
#include "detail/tree.hpp"
#include "nbc_sched.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/base/yield.hpp"
#include "sessmpi/coll/plan.hpp"
#include "sessmpi/coll/shm.hpp"
#include "sessmpi/comm.hpp"
#include "sessmpi/obs/hist.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi {

using coll::NodeShared;
using coll::Plan;
using coll::Slot;
using detail::CommState;
using detail::ProcState;
using detail::RequestPtr;
using detail::Tree;

namespace {

// --- selection --------------------------------------------------------------

enum class Algo : int { automatic = 0, flat = 1, hier = 2 };
std::atomic<int> g_algo{static_cast<int>(Algo::automatic)};

void ensure_tvars() {
  static const bool once = [] {
    obs::register_cvar(
        "coll.algorithm",
        "collective algorithm selection: auto | flat | hier (global; flip "
        "only while no collective is in flight)",
        [] {
          switch (static_cast<Algo>(g_algo.load(std::memory_order_relaxed))) {
            case Algo::flat:
              return std::string("flat");
            case Algo::hier:
              return std::string("hier");
            default:
              return std::string("auto");
          }
        },
        [](const std::string& v) {
          if (v == "auto") {
            g_algo.store(static_cast<int>(Algo::automatic),
                         std::memory_order_relaxed);
          } else if (v == "flat") {
            g_algo.store(static_cast<int>(Algo::flat),
                         std::memory_order_relaxed);
          } else if (v == "hier") {
            g_algo.store(static_cast<int>(Algo::hier),
                         std::memory_order_relaxed);
          } else {
            return false;
          }
          return true;
        });
    obs::register_pvar_gauge("coll.zero_copy_pct", [] {
      const std::uint64_t shm = base::counters().value("coll.shm_bytes");
      const std::uint64_t wire = base::counters().value("coll.wire_bytes");
      const std::uint64_t total = shm + wire;
      return total == 0 ? std::uint64_t{0} : shm * 100 / total;
    });
    return true;
  }();
  (void)once;
}

// Register eagerly as well, so tools (and tests) can flip "coll.algorithm"
// before the first collective runs. The obs registry is a function-local
// static, so this is safe under any static-init order.
const bool g_tvars_eager = (ensure_tvars(), true);

const std::shared_ptr<CommState>& coll_state(
    const std::shared_ptr<CommState>& s) {
  if (!s || s->freed) {
    throw Error(ErrClass::comm, "collective on invalid communicator");
  }
  ensure_tvars();
  return s;
}

std::uint32_t next_seq(const std::shared_ptr<CommState>& s) {
  std::lock_guard lock(s->ps->mu);
  return s->coll_seq++;
}

/// Leader of `node`, except the root leads its own node so rooted
/// operations never relay through an extra hop.
int head_of(const Plan& p, int node, int root) {
  return p.node_of[static_cast<std::size_t>(root)] == node
             ? root
             : p.leaders[static_cast<std::size_t>(node)];
}

bool hier_selected(const Plan& p) {
  if (p.nranks < 2 || !p.multi_member) {
    return false;
  }
  switch (static_cast<Algo>(g_algo.load(std::memory_order_relaxed))) {
    case Algo::flat:
      return false;
    case Algo::hier:
      return true;
    default:
      return true;  // auto: multi-member nodes exist, hierarchy pays off
  }
}

void pick(const char* op, const char* variant) {
  base::counters().add(std::string("coll.algo.") + op + "." + variant);
}

/// memcpy that tolerates the null-pointer/zero-length corner uniformly
/// (zero-count collectives reach every path with empty buffers).
void safe_copy(void* dst, const void* src, std::size_t n) {
  if (n > 0) {
    std::memcpy(dst, src, n);
  }
}

/// Stage the contribution: MPI_IN_PLACE means "my input is in recvbuf",
/// which must be copied aside because recvbuf doubles as the output (and,
/// hierarchically, because peers read the contribution while recvbuf is
/// being overwritten with the result).
const void* resolve_contrib(const void* sendbuf, void* recvbuf,
                            std::size_t bytes, std::vector<std::byte>* stage) {
  if (sendbuf != in_place) {
    return sendbuf;
  }
  stage->resize(bytes);
  safe_copy(stage->data(), recvbuf, bytes);
  return stage->data();
}

/// Fabric-send accounting; a payload copied over the fabric between two
/// ranks of the *same* node is exactly the copy the zero-copy path is
/// meant to eliminate, so it also bumps coll.payload_copies.
void note_wire(ProcState& ps, const CommState& s, int dst, std::size_t bytes) {
  static const auto c_sends = base::counter("coll.wire_sends");
  static const auto c_bytes = base::counter("coll.wire_bytes");
  static const auto c_copies = base::counter("coll.payload_copies");
  c_sends.add();
  c_bytes.add(bytes);
  if (ps.proc.cluster().topology().same_node(ps.proc.rank(),
                                             s.global_of(dst))) {
    c_copies.add();
  }
}

// --- shm protocol drivers ---------------------------------------------------

struct Ctx {
  ProcState& ps;
  const std::shared_ptr<CommState>& s;
  const Plan& p;
  NodeShared* region;  ///< this communicator's; null when alone on the node
  std::uint64_t base;  ///< (coll_seq + 1) * kOpStride: this op's ordinal base
  std::uint32_t seq;
};

Ctx make_ctx(ProcState& ps, const std::shared_ptr<CommState>& s,
             const coll::PlanView& view, std::uint32_t seq) {
  return Ctx{ps, s, *view, view.region.get(),
             (static_cast<std::uint64_t>(seq) + 1) * NodeShared::kOpStride,
             seq};
}

[[noreturn]] void poison_throw(const Ctx& c, ErrClass cls, const char* what) {
  if (c.region) {
    c.region->poison(cls);
    static const auto c_poisons = base::counter("coll.poisons");
    c_poisons.add();
  }
  throw Error(cls, what);
}

/// Everything that can unblock a spinning shm wait: cluster abort, a peer
/// poisoning the region, an on-node peer dying (the writer we wait on may
/// never publish), or a revocation flood.
void liveness_check(const Ctx& c) {
  sim::Cluster& cluster = c.ps.proc.cluster();
  if (cluster.aborted()) {
    throw Error(ErrClass::proc_aborted, "cluster aborting during collective");
  }
  if (c.region) {
    const ErrClass cls = c.region->poisoned();
    if (cls != ErrClass::success) {
      throw Error(cls, "collective aborted by on-node peer");
    }
  }
  for (base::Rank g : c.p.my_node_globals) {
    if (cluster.fabric().is_failed(g)) {
      poison_throw(c, ErrClass::rte_proc_failed,
                   "on-node peer failed during collective");
    }
  }
  bool revoked = false;
  {
    std::lock_guard lock(c.ps.mu);
    revoked = c.s->revoked;
  }
  if (revoked) {
    poison_throw(c, ErrClass::comm_revoked,
                 "communicator revoked during collective");
  }
}

template <class Pred>
void spin(const Ctx& c, Pred&& ready) {
  for (std::uint64_t i = 0;; ++i) {
    if (ready()) {
      return;
    }
    if ((i & 63u) == 63u) {
      liveness_check(c);
    }
    if ((i & 1023u) == 1023u) {
      c.ps.progress_pass(false);  // keep floods/notices flowing while parked
    }
    base::try_yield();  // scheduler-aware: fibers hand the worker back
  }
}

/// Publish my slot on `channel`: expose `src` to `readers` peers under
/// ordinal `ord`. Waits for the previous publication to drain first, which
/// is also what makes reusing the buffer behind an older ordinal safe.
void publish(const Ctx& c, int channel, const void* src, std::size_t bytes,
             std::uint32_t readers, std::uint64_t ord) {
  if (readers == 0) {
    return;
  }
  Slot& sl = c.region->slot(c.p.my_slot, channel);
  spin(c, [&] { return sl.readers_left.load(std::memory_order_acquire) == 0; });
  sl.src = static_cast<const std::byte*>(src);
  sl.bytes = bytes;
  sl.readers_left.store(readers, std::memory_order_relaxed);
  sl.seq.store(c.base + ord, std::memory_order_release);
  static const auto c_pub = base::counter("coll.shm_publishes");
  c_pub.add();
}

/// Wait for comm rank `commrank` (on my node) to publish ordinal `ord`.
Slot& await_slot(const Ctx& c, int commrank, int channel, std::uint64_t ord) {
  Slot& sl =
      c.region->slot(c.p.slot_of[static_cast<std::size_t>(commrank)], channel);
  spin(c, [&] {
    return sl.seq.load(std::memory_order_acquire) >= c.base + ord;
  });
  static const auto c_reads = base::counter("coll.shm_reads");
  static const auto c_bytes = base::counter("coll.shm_bytes");
  c_reads.add();
  c_bytes.add(sl.bytes);
  return sl;
}

void done_read(Slot& sl) { sl.readers_left.fetch_sub(1, std::memory_order_release); }

/// Wait until every reader of my latest publication on `channel` finished —
/// required before returning a user buffer or freeing scratch it exposed.
void drain_my(const Ctx& c, int channel) {
  if (!c.region) {
    return;
  }
  Slot& sl = c.region->slot(c.p.my_slot, channel);
  spin(c, [&] { return sl.readers_left.load(std::memory_order_acquire) == 0; });
}

/// Run a hierarchical body; any escaping failure poisons the region so
/// on-node peers blocked on our slots abort with the same class instead of
/// spinning forever. An exception out of a user reduction op counts too.
template <class Fn>
void with_region_poison(const Ctx& c, Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    if (c.region) {
      c.region->poison(e.error_class());
      base::counters().add("coll.poisons");
    }
    throw;
  } catch (...) {
    if (c.region) {
      c.region->poison(ErrClass::intern);
      base::counters().add("coll.poisons");
    }
    throw;
  }
}

/// Map a completed nonblocking sub-request's failure into a poison+throw.
void check_req(const Ctx& c, const RequestPtr& req, const char* what) {
  if (req->status.error != ErrClass::success) {
    poison_throw(c, req->status.error, what);
  }
}

// --- hierarchical algorithms ------------------------------------------------

/// Cross-node barrier among the node leaders: the nonblocking barrier
/// schedule over a binomial tree of node indices, waited on here. Its abort
/// path already carries a failure to every other leader.
void head_barrier(const Ctx& c) {
  const Tree t = detail::mapped_tree(
      c.p.my_node, static_cast<int>(c.p.leaders.size()),
      [&](int node) { return c.p.leaders[static_cast<std::size_t>(node)]; });
  RequestPtr req = coll::start_barrier(c.ps, c.s, t, c.seq);
  c.ps.progress_until([&] { return req->done(); });
  check_req(c, req, "barrier peer aborted");
}

/// Hierarchical pipelined broadcast: binomial tree over node heads (large
/// payloads split into segments so a node can forward segment k while
/// receiving k+1), then a single on-node publication per segment that every
/// member copies straight out of the head's buffer.
void hier_bcast(const Ctx& c, void* buf, std::size_t bytes, int root) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());
  const int rootnode = p.node_of[static_cast<std::size_t>(root)];
  auto* out = static_cast<std::byte*>(buf);

  int nseg = 1;
  if (bytes >= (128u << 10)) {
    nseg = static_cast<int>(
        std::min<std::size_t>(8, bytes / (64u << 10)));
  }
  const std::size_t segsz = (bytes + static_cast<std::size_t>(nseg) - 1) /
                            static_cast<std::size_t>(nseg);

  const int my_head = head_of(p, p.my_node, root);
  if (c.s->myrank == my_head) {
    const Tree t = detail::mapped_tree(
        (p.my_node - rootnode + nh) % nh, nh,
        [&](int v) { return head_of(p, (v + rootnode) % nh, root); });
    for (int si = 0; si < nseg; ++si) {
      const std::size_t off = static_cast<std::size_t>(si) * segsz;
      const std::size_t sb = std::min(segsz, bytes - off);
      const int tag = detail::internal_tag(c.seq, si);
      if (t.parent >= 0) {
        c.ps.blocking_recv(*c.s, out + off, static_cast<int>(sb),
                           Datatype::byte(), t.parent, tag);
      }
      for (int cr : t.children) {
        c.ps.blocking_send(*c.s, out + off, static_cast<int>(sb),
                           Datatype::byte(), cr, tag, false);
        note_wire(c.ps, *c.s, cr, sb);
      }
      publish(c, 0, out + off, sb, static_cast<std::uint32_t>(p.on_node - 1),
              static_cast<std::uint64_t>(si));
    }
    drain_my(c, 0);
  } else {
    for (int si = 0; si < nseg; ++si) {
      const std::size_t off = static_cast<std::size_t>(si) * segsz;
      const std::size_t sb = std::min(segsz, bytes - off);
      Slot& sl = await_slot(c, my_head, 0, static_cast<std::uint64_t>(si));
      safe_copy(out + off, sl.src, std::min(sb, sl.bytes));
      done_read(sl);
    }
  }
}

/// Commutative hierarchical reduce: on-node members publish their
/// contribution once; the head folds them in socket-grouped order, then a
/// binomial tree over heads folds the node partials toward the root.
void hier_reduce_commutative(const Ctx& c, const void* contrib, void* recvbuf,
                             int count, const Datatype& dt, const Op& op,
                             int root, std::size_t bytes) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());
  const int rootnode = p.node_of[static_cast<std::size_t>(root)];
  const int my_head = head_of(p, p.my_node, root);
  const int tag = detail::internal_tag(c.seq, 0);

  if (c.s->myrank != my_head) {
    publish(c, 0, contrib, bytes, 1, 0);
    drain_my(c, 0);
    return;
  }

  std::vector<std::byte> acc(bytes);
  safe_copy(acc.data(), contrib, bytes);
  for (const auto& sock : p.my_sockets) {
    for (int m : sock) {
      if (m == c.s->myrank) {
        continue;
      }
      Slot& sl = await_slot(c, m, 0, 0);
      op.apply(sl.src, acc.data(), count, dt);
      done_read(sl);
    }
  }

  const Tree t = detail::mapped_tree(
      (p.my_node - rootnode + nh) % nh, nh,
      [&](int v) { return head_of(p, (v + rootnode) % nh, root); });
  std::vector<std::byte> tmp(t.children.empty() ? 0 : bytes);
  for (int child : t.children) {
    c.ps.blocking_recv(*c.s, tmp.data(), count, dt, child, tag);
    op.apply(tmp.data(), acc.data(), count, dt);
  }
  if (t.parent >= 0) {
    c.ps.blocking_send(*c.s, acc.data(), count, dt, t.parent, tag, false);
    note_wire(c.ps, *c.s, t.parent, bytes);
  } else {
    safe_copy(recvbuf, acc.data(), bytes);
  }
}

/// Non-commutative reduce: the fold must stay a strict linear rank-ordered
/// chain (no regrouping), so the hierarchy only removes the on-node copies:
/// members of the root's node publish their contribution zero-copy, remote
/// ranks send flat. Result is bit-identical to the flat path.
void hier_reduce_ordered(const Ctx& c, const void* contrib, void* recvbuf,
                         int count, const Datatype& dt, const Op& op, int root,
                         std::size_t bytes) {
  const Plan& p = c.p;
  const int n = p.nranks;
  const int tag = detail::internal_tag(c.seq, 0);

  if (c.s->myrank == root) {
    std::vector<std::byte> tmp(bytes);
    bool first = true;
    for (int r = 0; r < n; ++r) {
      const void* cr = nullptr;
      Slot* sl = nullptr;
      if (r == root) {
        cr = contrib;
      } else if (p.node_of[static_cast<std::size_t>(r)] == p.my_node) {
        sl = &await_slot(c, r, 0, 0);
        cr = sl->src;
      } else {
        c.ps.blocking_recv(*c.s, tmp.data(), count, dt, r, tag);
        cr = tmp.data();
      }
      if (first) {
        safe_copy(recvbuf, cr, bytes);
        first = false;
      } else {
        op.apply(cr, recvbuf, count, dt);
      }
      if (sl != nullptr) {
        done_read(*sl);
      }
    }
  } else if (p.node_of[static_cast<std::size_t>(root)] == p.my_node) {
    publish(c, 0, contrib, bytes, 1, 0);
    drain_my(c, 0);
  } else {
    c.ps.blocking_send(*c.s, contrib, count, dt, root, tag, false);
    note_wire(c.ps, *c.s, root, bytes);
  }
}

/// Recursive-doubling exchange of `acc` among the node leaders (classic
/// pre/post folding of the non-power-of-two remainder). Rounds use
/// distinct tags; round count is 2 + log2(#nodes), well under the 32-round
/// tag budget per collective.
void rd_exchange(const Ctx& c, std::byte* acc, int count, const Datatype& dt,
                 const Op& op, std::size_t bytes) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());
  const int h = p.my_node;
  const auto tagr = [&](int r) { return detail::internal_tag(c.seq, r); };

  int pof2 = 1;
  int log2p = 0;
  while (pof2 * 2 <= nh) {
    pof2 *= 2;
    ++log2p;
  }
  const int rem = nh - pof2;
  std::vector<std::byte> tmp(bytes);

  if (h >= pof2) {
    // Fold my contribution into a partner, then receive the finished value.
    const int partner = p.leaders[static_cast<std::size_t>(h - pof2)];
    c.ps.blocking_send(*c.s, acc, count, dt, partner, tagr(0), false);
    note_wire(c.ps, *c.s, partner, bytes);
    c.ps.blocking_recv(*c.s, acc, count, dt, partner, tagr(1 + log2p));
    return;
  }
  if (h < rem) {
    c.ps.blocking_recv(*c.s, tmp.data(), count, dt,
                       p.leaders[static_cast<std::size_t>(h + pof2)], tagr(0));
    op.apply(tmp.data(), acc, count, dt);
  }
  int round = 1;
  for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
    const int partner = p.leaders[static_cast<std::size_t>(h ^ mask)];
    auto rreq = c.ps.irecv_impl(*c.s, tmp.data(), count, dt, partner, tagr(round));
    auto sreq = c.ps.isend_impl(*c.s, acc, count, dt, partner, tagr(round), false);
    note_wire(c.ps, *c.s, partner, bytes);
    c.ps.progress_until([&] { return rreq->done() && sreq->done(); });
    check_req(c, rreq, "allreduce leader exchange failed");
    check_req(c, sreq, "allreduce leader exchange failed");
    op.apply(tmp.data(), acc, count, dt);
  }
  if (h < rem) {
    const int partner = p.leaders[static_cast<std::size_t>(h + pof2)];
    c.ps.blocking_send(*c.s, acc, count, dt, partner, tagr(round), false);
    note_wire(c.ps, *c.s, partner, bytes);
  }
}

/// Ring exchange among leaders: element-chunked reduce-scatter followed by
/// allgather — bandwidth-optimal for large payloads. One tag covers every
/// step: each directed leader pair carries its messages in a fixed order
/// and the fabric delivers per-flow in order, so sequentially posted
/// receives pair up deterministically.
void ring_exchange(const Ctx& c, std::byte* acc, int count, const Datatype& dt,
                   const Op& op) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());
  const int h = p.my_node;
  const std::size_t ext = dt.extent();
  const int ecz = (count + nh - 1) / nh;  // chunk size in *elements*
  const auto lo = [&](int k) { return std::min(count, k * ecz); };
  const auto elems = [&](int k) { return std::min(count, (k + 1) * ecz) - lo(k); };
  const auto off = [&](int k) { return static_cast<std::size_t>(lo(k)) * ext; };
  const int right = p.leaders[static_cast<std::size_t>((h + 1) % nh)];
  const int left = p.leaders[static_cast<std::size_t>((h - 1 + nh) % nh)];
  const int tag = detail::internal_tag(c.seq, 1);
  std::vector<std::byte> rtmp(static_cast<std::size_t>(ecz) * ext);

  for (int t = 0; t < nh - 1; ++t) {  // reduce-scatter
    const int sk = (h - t + nh) % nh;
    const int rk = (h - t - 1 + nh) % nh;
    RequestPtr rreq, sreq;
    if (elems(rk) > 0) {
      rreq = c.ps.irecv_impl(*c.s, rtmp.data(), elems(rk), dt, left, tag);
    }
    if (elems(sk) > 0) {
      sreq = c.ps.isend_impl(*c.s, acc + off(sk), elems(sk), dt, right, tag,
                             false);
      note_wire(c.ps, *c.s, right, static_cast<std::size_t>(elems(sk)) * ext);
    }
    c.ps.progress_until([&] {
      return (!rreq || rreq->done()) && (!sreq || sreq->done());
    });
    if (rreq) {
      check_req(c, rreq, "allreduce ring exchange failed");
      op.apply(rtmp.data(), acc + off(rk), elems(rk), dt);
    }
    if (sreq) {
      check_req(c, sreq, "allreduce ring exchange failed");
    }
  }
  for (int t = 0; t < nh - 1; ++t) {  // allgather
    const int sk = (h + 1 - t + nh) % nh;
    const int rk = (h - t + nh) % nh;
    RequestPtr rreq, sreq;
    if (elems(rk) > 0) {
      rreq = c.ps.irecv_impl(*c.s, acc + off(rk), elems(rk), dt, left, tag);
    }
    if (elems(sk) > 0) {
      sreq = c.ps.isend_impl(*c.s, acc + off(sk), elems(sk), dt, right, tag,
                             false);
      note_wire(c.ps, *c.s, right, static_cast<std::size_t>(elems(sk)) * ext);
    }
    c.ps.progress_until([&] {
      return (!rreq || rreq->done()) && (!sreq || sreq->done());
    });
    if (rreq) {
      check_req(c, rreq, "allreduce ring exchange failed");
    }
    if (sreq) {
      check_req(c, sreq, "allreduce ring exchange failed");
    }
  }
}

/// Hierarchical commutative allreduce: single on-node fan-in publication
/// per member, leader exchange (ring or recursive doubling), single
/// release publication of the finished result that members copy straight
/// from the head's recvbuf.
void hier_allreduce(const Ctx& c, const void* contrib, void* recvbuf,
                    int count, const Datatype& dt, const Op& op,
                    std::size_t bytes) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());

  if (!p.i_am_leader) {
    publish(c, 0, contrib, bytes, 1, 0);
    Slot& sl = await_slot(c, p.leaders[static_cast<std::size_t>(p.my_node)], 1,
                          1);
    safe_copy(recvbuf, sl.src, std::min(bytes, sl.bytes));
    done_read(sl);
    return;
  }

  std::vector<std::byte> acc(bytes);
  safe_copy(acc.data(), contrib, bytes);
  for (const auto& sock : p.my_sockets) {
    for (int m : sock) {
      if (m == c.s->myrank) {
        continue;
      }
      Slot& sl = await_slot(c, m, 0, 0);
      op.apply(sl.src, acc.data(), count, dt);
      done_read(sl);
    }
  }
  if (nh > 1) {
    if (bytes >= (128u << 10) && nh >= 4 && count >= nh) {
      ring_exchange(c, acc.data(), count, dt, op);
    } else {
      rd_exchange(c, acc.data(), count, dt, op, bytes);
    }
  }
  safe_copy(recvbuf, acc.data(), bytes);
  if (p.on_node > 1) {
    publish(c, 1, recvbuf, bytes, static_cast<std::uint32_t>(p.on_node - 1), 1);
    drain_my(c, 1);
  }
}

void hier_barrier(const Ctx& c) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());
  if (!p.i_am_leader) {
    publish(c, 0, nullptr, 0, 1, 0);
    Slot& sl = await_slot(c, p.leaders[static_cast<std::size_t>(p.my_node)], 1,
                          1);
    done_read(sl);
    return;
  }
  for (const auto& sock : p.my_sockets) {
    for (int m : sock) {
      if (m == c.s->myrank) {
        continue;
      }
      Slot& sl = await_slot(c, m, 0, 0);
      done_read(sl);
    }
  }
  if (nh > 1) {
    head_barrier(c);
  }
  if (p.on_node > 1) {
    publish(c, 1, nullptr, 0, static_cast<std::uint32_t>(p.on_node - 1), 1);
    drain_my(c, 1);
  }
}

/// Hierarchical gather: on-node members publish once (root's node members
/// are read directly by the root — zero copies); each remote head packs its
/// node into one message, so the root receives O(nodes) messages instead of
/// O(ranks).
void hier_gather(const Ctx& c, const void* contrib, std::size_t sbytes,
                 void* recvbuf, std::size_t rslot, int recvcount,
                 const Datatype& rdt, int root, bool root_in_place) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());
  const int my_head = head_of(p, p.my_node, root);
  const int tag = detail::internal_tag(c.seq, 0);

  if (c.s->myrank == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::vector<std::byte> scratch;
    for (int ni = 0; ni < nh; ++ni) {
      if (ni == p.my_node) {
        continue;
      }
      const auto& mem = p.node_members[static_cast<std::size_t>(ni)];
      scratch.resize(mem.size() * rslot);
      const Status st = c.ps.blocking_recv(
          *c.s, scratch.data(), static_cast<int>(mem.size() * rslot),
          Datatype::byte(), head_of(p, ni, root), tag);
      const std::size_t stride = st.count_bytes / mem.size();
      for (std::size_t i = 0; i < mem.size(); ++i) {
        safe_copy(out + static_cast<std::size_t>(mem[i]) * rslot,
                  scratch.data() + i * stride, std::min(stride, rslot));
      }
    }
    for (int m : p.node_members[static_cast<std::size_t>(p.my_node)]) {
      if (m == root) {
        continue;
      }
      Slot& sl = await_slot(c, m, 0, 0);
      safe_copy(out + static_cast<std::size_t>(m) * rslot, sl.src,
                std::min(sl.bytes, rslot));
      done_read(sl);
    }
    if (!root_in_place) {
      safe_copy(out + static_cast<std::size_t>(root) * rslot, contrib,
                std::min(sbytes, rslot));
    }
    (void)recvcount;
    (void)rdt;
  } else if (c.s->myrank == my_head) {
    // Pack my node (own contribution plus each member's publication) into
    // one wire message to the root.
    const auto& mine = p.node_members[static_cast<std::size_t>(p.my_node)];
    std::vector<std::byte> packed(mine.size() * sbytes);
    std::vector<Slot*> held;
    held.reserve(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (mine[i] == c.s->myrank) {
        safe_copy(packed.data() + i * sbytes, contrib, sbytes);
      } else {
        Slot& sl = await_slot(c, mine[i], 0, 0);
        safe_copy(packed.data() + i * sbytes, sl.src,
                  std::min(sl.bytes, sbytes));
        held.push_back(&sl);
      }
    }
    for (Slot* sl : held) {
      done_read(*sl);
    }
    c.ps.blocking_send(*c.s, packed.data(),
                       static_cast<int>(packed.size()), Datatype::byte(), root,
                       tag, false);
    note_wire(c.ps, *c.s, root, packed.size());
  } else {
    publish(c, 0, contrib, sbytes, 1, 0);
    drain_my(c, 0);
  }
}

/// Hierarchical scatter: the root publishes its whole send buffer once and
/// every on-node member slices its block out directly; remote nodes get one
/// packed message each, re-published by their head.
void hier_scatter(const Ctx& c, const void* sendbuf, std::size_t sslot,
                  void* recvbuf, std::size_t rbytes, int root,
                  bool root_in_place) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());
  const int my_head = head_of(p, p.my_node, root);
  const int tag = detail::internal_tag(c.seq, 0);

  if (c.s->myrank == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    publish(c, 0, in, sslot, static_cast<std::uint32_t>(p.on_node - 1), 0);
    std::vector<std::byte> packed;
    for (int ni = 0; ni < nh; ++ni) {
      if (ni == p.my_node) {
        continue;
      }
      const auto& mem = p.node_members[static_cast<std::size_t>(ni)];
      const int dst = head_of(p, ni, root);
      if (p.node_contiguous[static_cast<std::size_t>(ni)] != 0) {
        c.ps.blocking_send(
            *c.s, in + static_cast<std::size_t>(mem.front()) * sslot,
            static_cast<int>(mem.size() * sslot), Datatype::byte(), dst, tag,
            false);
      } else {
        packed.resize(mem.size() * sslot);
        for (std::size_t i = 0; i < mem.size(); ++i) {
          safe_copy(packed.data() + i * sslot,
                    in + static_cast<std::size_t>(mem[i]) * sslot, sslot);
        }
        c.ps.blocking_send(*c.s, packed.data(),
                           static_cast<int>(packed.size()), Datatype::byte(),
                           dst, tag, false);
      }
      note_wire(c.ps, *c.s, dst, mem.size() * sslot);
    }
    if (!root_in_place) {
      safe_copy(recvbuf, in + static_cast<std::size_t>(root) * sslot,
                std::min(sslot, rbytes));
    }
    drain_my(c, 0);
  } else if (c.s->myrank == my_head) {
    const auto& mine = p.node_members[static_cast<std::size_t>(p.my_node)];
    std::vector<std::byte> scratch(mine.size() * std::max(rbytes, sslot));
    const Status st =
        c.ps.blocking_recv(*c.s, scratch.data(),
                           static_cast<int>(scratch.size()), Datatype::byte(),
                           root, tag);
    const std::size_t stride = st.count_bytes / mine.size();
    // Members index the packed block by their slot position; bytes carries
    // the stride.
    publish(c, 1, scratch.data(), stride,
            static_cast<std::uint32_t>(p.on_node - 1), 1);
    safe_copy(recvbuf,
              scratch.data() + static_cast<std::size_t>(p.my_slot) * stride,
              std::min(stride, rbytes));
    drain_my(c, 1);
  } else if (p.node_of[static_cast<std::size_t>(root)] == p.my_node) {
    Slot& sl = await_slot(c, root, 0, 0);
    safe_copy(recvbuf,
              sl.src + static_cast<std::size_t>(c.s->myrank) * sl.bytes,
              std::min(sl.bytes, rbytes));
    done_read(sl);
  } else {
    Slot& sl = await_slot(c, my_head, 1, 1);
    safe_copy(recvbuf,
              sl.src + static_cast<std::size_t>(p.my_slot) * sl.bytes,
              std::min(sl.bytes, rbytes));
    done_read(sl);
  }
}

/// Hierarchical "ladder" alltoall. Intra-node blocks move zero-copy: every
/// member publishes its whole send buffer once and peers slice their block
/// out directly. Cross-node, only heads exchange: one packed message per
/// node pair per step (dest-major member blocks), re-published on arrival
/// so members unpack straight from the head's receive buffer.
void hier_alltoall(const Ctx& c, const void* sendbuf, std::size_t sslot,
                   void* recvbuf, std::size_t rslot) {
  const Plan& p = c.p;
  const int nh = static_cast<int>(p.leaders.size());
  const int me = c.s->myrank;
  const int head = p.leaders[static_cast<std::size_t>(p.my_node)];
  const bool i_am_head = p.i_am_leader;
  const auto& mine = p.node_members[static_cast<std::size_t>(p.my_node)];
  const std::size_t nmine = mine.size();
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  const int tag = detail::internal_tag(c.seq, 1);

  // Readers of my send-buffer publication: every other on-node member
  // slices its block, and (cross-node) the head additionally holds the
  // slot across all its pack steps.
  const std::uint32_t readers =
      static_cast<std::uint32_t>(p.on_node - 1) +
      ((nh > 1 && !i_am_head) ? 1u : 0u);
  publish(c, 0, in, sslot, readers, 0);

  safe_copy(out + static_cast<std::size_t>(me) * rslot,
            in + static_cast<std::size_t>(me) * sslot,
            std::min(sslot, rslot));

  // Intra-node: slice my block out of each peer's publication. The head
  // additionally captures each publication's src for the pack phase.
  std::vector<const std::byte*> peer_src(nmine, nullptr);
  std::vector<std::size_t> peer_stride(nmine, 0);
  std::vector<Slot*> peer_slot(nmine, nullptr);
  for (std::size_t i = 0; i < nmine; ++i) {
    const int q = mine[i];
    if (q == me) {
      peer_src[i] = in;
      peer_stride[i] = sslot;
      continue;
    }
    Slot& sl = await_slot(c, q, 0, 0);
    safe_copy(out + static_cast<std::size_t>(q) * rslot,
              sl.src + static_cast<std::size_t>(me) * sl.bytes,
              std::min(sl.bytes, rslot));
    peer_src[i] = sl.src;
    peer_stride[i] = sl.bytes;
    peer_slot[i] = &sl;
    done_read(sl);
  }

  if (nh > 1) {
    if (i_am_head) {
      std::vector<std::byte> sscratch;
      // Ping-pong receive buffers: publish(k) waits for publish(k-1) to
      // drain, which transitively protects same-parity buffer reuse.
      std::vector<std::byte> rbuf[2];
      for (int k = 1; k < nh; ++k) {
        const int dstn = (p.my_node + k) % nh;
        const int srcn = (p.my_node - k + nh) % nh;
        const auto& dmem = p.node_members[static_cast<std::size_t>(dstn)];
        const auto& smem = p.node_members[static_cast<std::size_t>(srcn)];
        sscratch.resize(dmem.size() * nmine * sslot);
        for (std::size_t di = 0; di < dmem.size(); ++di) {
          for (std::size_t mi = 0; mi < nmine; ++mi) {
            safe_copy(
                sscratch.data() + (di * nmine + mi) * sslot,
                peer_src[mi] +
                    static_cast<std::size_t>(dmem[di]) * peer_stride[mi],
                std::min(peer_stride[mi], sslot));
          }
        }
        std::vector<std::byte>& rb = rbuf[k & 1];
        rb.resize(nmine * smem.size() * std::max(sslot, rslot));
        auto rreq = c.ps.irecv_impl(
            *c.s, rb.data(), static_cast<int>(rb.size()), Datatype::byte(),
            p.leaders[static_cast<std::size_t>(srcn)], tag);
        auto sreq = c.ps.isend_impl(
            *c.s, sscratch.data(), static_cast<int>(sscratch.size()),
            Datatype::byte(), p.leaders[static_cast<std::size_t>(dstn)], tag,
            false);
        note_wire(c.ps, *c.s, p.leaders[static_cast<std::size_t>(dstn)],
                  sscratch.size());
        c.ps.progress_until([&] { return rreq->done() && sreq->done(); });
        check_req(c, rreq, "alltoall leader exchange failed");
        check_req(c, sreq, "alltoall leader exchange failed");
        const std::size_t stride =
            smem.empty() || nmine == 0
                ? 0
                : rreq->status.count_bytes / (nmine * smem.size());
        publish(c, 1, rb.data(), stride,
                static_cast<std::uint32_t>(p.on_node - 1),
                static_cast<std::uint64_t>(k));
        // Unpack my own row (slot position my_slot, source-major within it).
        for (std::size_t si = 0; si < smem.size(); ++si) {
          safe_copy(out + static_cast<std::size_t>(smem[si]) * rslot,
                    rb.data() +
                        (static_cast<std::size_t>(p.my_slot) * smem.size() +
                         si) *
                            stride,
                    std::min(stride, rslot));
        }
      }
      drain_my(c, 1);
      for (std::size_t i = 0; i < nmine; ++i) {  // release the pack holds
        if (peer_slot[i] != nullptr) {
          done_read(*peer_slot[i]);
        }
      }
    } else {
      for (int k = 1; k < nh; ++k) {
        const int srcn = (p.my_node - k + nh) % nh;
        const auto& smem = p.node_members[static_cast<std::size_t>(srcn)];
        Slot& sl = await_slot(c, head, 1, static_cast<std::uint64_t>(k));
        for (std::size_t si = 0; si < smem.size(); ++si) {
          safe_copy(out + static_cast<std::size_t>(smem[si]) * rslot,
                    sl.src +
                        (static_cast<std::size_t>(p.my_slot) * smem.size() +
                         si) *
                            sl.bytes,
                    std::min(sl.bytes, rslot));
        }
        done_read(sl);
      }
    }
  }
  drain_my(c, 0);  // my send buffer goes back to the user
}

// --- flat transplants (the seed algorithms, with wire accounting) ----------

void flat_bcast(const Ctx& c, void* buf, int count, const Datatype& dt,
                int root) {
  const int n = c.p.nranks;
  const int tag = detail::internal_tag(c.seq, 0);
  const Tree t = detail::mapped_tree((c.s->myrank - root + n) % n, n,
                                     [&](int v) { return (v + root) % n; });
  const std::size_t bytes = static_cast<std::size_t>(count) * dt.extent();

  if (t.parent >= 0) {
    c.ps.blocking_recv(*c.s, buf, count, dt, t.parent, tag);
  }
  for (int child : t.children) {
    c.ps.blocking_send(*c.s, buf, count, dt, child, tag, false);
    note_wire(c.ps, *c.s, child, bytes);
  }
}

void flat_reduce(const Ctx& c, const void* contrib, void* recvbuf, int count,
                 const Datatype& dt, const Op& op, int root,
                 std::size_t bytes) {
  const int n = c.p.nranks;
  const int tag = detail::internal_tag(c.seq, 0);

  if (!op.commutative()) {
    if (c.s->myrank == root) {
      std::vector<std::byte> tmp(bytes);
      bool first = true;
      for (int r = 0; r < n; ++r) {
        const void* cr = nullptr;
        if (r == root) {
          cr = contrib;
        } else {
          c.ps.blocking_recv(*c.s, tmp.data(), count, dt, r, tag);
          cr = tmp.data();
        }
        if (first) {
          safe_copy(recvbuf, cr, bytes);
          first = false;
        } else {
          op.apply(cr, recvbuf, count, dt);
        }
      }
    } else {
      c.ps.blocking_send(*c.s, contrib, count, dt, root, tag, false);
      note_wire(c.ps, *c.s, root, bytes);
    }
    return;
  }

  std::vector<std::byte> acc(bytes);
  safe_copy(acc.data(), contrib, bytes);
  const Tree t = detail::mapped_tree((c.s->myrank - root + n) % n, n,
                                     [&](int v) { return (v + root) % n; });

  std::vector<std::byte> incoming(bytes);
  for (int child : t.children) {
    c.ps.blocking_recv(*c.s, incoming.data(), count, dt, child, tag);
    op.apply(incoming.data(), acc.data(), count, dt);
  }
  if (t.parent >= 0) {
    c.ps.blocking_send(*c.s, acc.data(), count, dt, t.parent, tag, false);
    note_wire(c.ps, *c.s, t.parent, bytes);
  } else {
    safe_copy(recvbuf, acc.data(), bytes);
  }
}

void flat_gather(const Ctx& c, const void* sendbuf, int sendcount,
                 const Datatype& sdt, void* recvbuf, int recvcount,
                 const Datatype& rdt, int root, bool root_in_place) {
  const int n = c.p.nranks;
  const int tag = detail::internal_tag(c.seq, 0);
  if (c.s->myrank == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    const std::size_t slot = static_cast<std::size_t>(recvcount) * rdt.extent();
    for (int r = 0; r < n; ++r) {
      if (r == root) {
        if (!root_in_place) {
          safe_copy(out + static_cast<std::size_t>(r) * slot, sendbuf,
                    std::min(static_cast<std::size_t>(sendcount) * sdt.extent(),
                             slot));
        }
      } else {
        c.ps.blocking_recv(*c.s, out + static_cast<std::size_t>(r) * slot,
                           recvcount, rdt, r, tag);
      }
    }
  } else {
    c.ps.blocking_send(*c.s, sendbuf, sendcount, sdt, root, tag, false);
    note_wire(c.ps, *c.s, root,
              static_cast<std::size_t>(sendcount) * sdt.extent());
  }
}

void flat_scatter(const Ctx& c, const void* sendbuf, int sendcount,
                  const Datatype& sdt, void* recvbuf, int recvcount,
                  const Datatype& rdt, int root, bool root_in_place) {
  const int n = c.p.nranks;
  const int tag = detail::internal_tag(c.seq, 0);
  if (c.s->myrank == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    const std::size_t slot = static_cast<std::size_t>(sendcount) * sdt.extent();
    for (int r = 0; r < n; ++r) {
      if (r == root) {
        if (!root_in_place) {
          safe_copy(recvbuf, in + static_cast<std::size_t>(r) * slot,
                    std::min(slot, static_cast<std::size_t>(recvcount) *
                                       rdt.extent()));
        }
      } else {
        c.ps.blocking_send(*c.s, in + static_cast<std::size_t>(r) * slot,
                           sendcount, sdt, r, tag, false);
        note_wire(c.ps, *c.s, r, slot);
      }
    }
  } else {
    c.ps.blocking_recv(*c.s, recvbuf, recvcount, rdt, root, tag);
  }
}

void flat_alltoall(const Ctx& c, const void* sendbuf, int sendcount,
                   const Datatype& sdt, void* recvbuf, int recvcount,
                   const Datatype& rdt) {
  const int n = c.p.nranks;
  const int tag = detail::internal_tag(c.seq, 0);
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  const std::size_t sslot = static_cast<std::size_t>(sendcount) * sdt.extent();
  const std::size_t rslot = static_cast<std::size_t>(recvcount) * rdt.extent();

  safe_copy(out + static_cast<std::size_t>(c.s->myrank) * rslot,
            in + static_cast<std::size_t>(c.s->myrank) * sslot,
            std::min(sslot, rslot));
  for (int i = 1; i < n; ++i) {
    const int to = (c.s->myrank + i) % n;
    const int from = (c.s->myrank - i + n) % n;
    auto rreq = c.ps.irecv_impl(*c.s,
                                out + static_cast<std::size_t>(from) * rslot,
                                recvcount, rdt, from, tag);
    auto sreq = c.ps.isend_impl(*c.s, in + static_cast<std::size_t>(to) * sslot,
                                sendcount, sdt, to, tag, false);
    note_wire(c.ps, *c.s, to, sslot);
    c.ps.progress_until([&] { return rreq->done() && sreq->done(); });
    check_req(c, rreq, "alltoall exchange failed");
    check_req(c, sreq, "alltoall exchange failed");
  }
}

}  // namespace

namespace {

/// Pins one span id for the duration of a collective entry point: every
/// constituent message this rank sends (tree hops, token exchanges, leader
/// fan-out) carries the op's id as its wire trace context, so the merged
/// trace renders the whole collective as a single distributed flow rooted
/// at this rank's coll.* slice (DESIGN.md §16). Delegating ops (allreduce's
/// flat path, allgather) nest — each sub-op opens its own flow, and
/// ScopedFlowContext restores the outer id on exit.
struct CollFlow {
  std::uint64_t id;
  obs::ScopedFlowContext scope;
  CollFlow(const char* name, std::uint64_t arg)
      : id(obs::Tracer::instance().enabled() ? obs::Tracer::next_span_id()
                                             : 0),
        scope(id) {
    if (id != 0) {
      OBS_FLOW_START(name, "coll", id, arg);
    }
  }
};

}  // namespace

// --- Communicator entry points ---------------------------------------------

void Communicator::barrier() const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  OBS_SPAN("coll.barrier", "coll");
  const CollFlow flow("coll.barrier", 0);
  auto plan = coll::plan_for(ps, s);
  if (!hier_selected(*plan)) {
    pick("barrier", "flat");
    Status st = ibarrier().wait();
    if (st.error != ErrClass::success) {
      s->errh.raise(st.error, "barrier aborted");
    }
    return;
  }
  pick("barrier", "hier");
  const Ctx c = make_ctx(ps, s, plan, next_seq(s));
  try {
    with_region_poison(c, [&] { hier_barrier(c); });
  } catch (const Error& e) {
    s->errh.raise(e.error_class(), "barrier aborted");
  }
}

void Communicator::bcast(void* buf, int count, const Datatype& dt,
                         int root) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  const int n = s->size();
  if (root < 0 || root >= n) {
    s->errh.raise(ErrClass::root, "bcast root out of range");
  }
  if (n == 1) {
    return;
  }
  const std::size_t bytes = static_cast<std::size_t>(count) * dt.extent();
  OBS_SPAN_ARG("coll.bcast", "coll", bytes);
  const CollFlow flow("coll.bcast", bytes);
  auto plan = coll::plan_for(ps, s);
  const Ctx c = make_ctx(ps, s, plan, next_seq(s));
  if (hier_selected(*plan)) {
    pick("bcast", "hier");
    with_region_poison(c, [&] { hier_bcast(c, buf, bytes, root); });
  } else {
    pick("bcast", "flat");
    flat_bcast(c, buf, count, dt, root);
  }
}

void Communicator::reduce(const void* sendbuf, void* recvbuf, int count,
                          const Datatype& dt, const Op& op, int root) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  const int n = s->size();
  if (root < 0 || root >= n) {
    s->errh.raise(ErrClass::root, "reduce root out of range");
  }
  const std::size_t bytes = static_cast<std::size_t>(count) * dt.extent();
  OBS_SPAN_ARG("coll.reduce", "coll", bytes);
  const CollFlow flow("coll.reduce", bytes);
  std::vector<std::byte> stage;
  const void* contrib = resolve_contrib(sendbuf, recvbuf, bytes, &stage);
  auto plan = coll::plan_for(ps, s);
  const Ctx c = make_ctx(ps, s, plan, next_seq(s));
  if (hier_selected(*plan)) {
    pick("reduce", op.commutative() ? "hier" : "hier_ordered");
    with_region_poison(c, [&] {
      if (op.commutative()) {
        hier_reduce_commutative(c, contrib, recvbuf, count, dt, op, root,
                                bytes);
      } else {
        hier_reduce_ordered(c, contrib, recvbuf, count, dt, op, root, bytes);
      }
    });
  } else {
    pick("reduce", "flat");
    flat_reduce(c, contrib, recvbuf, count, dt, op, root, bytes);
  }
}

void Communicator::allreduce(const void* sendbuf, void* recvbuf, int count,
                             const Datatype& dt, const Op& op) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  const std::size_t bytes = static_cast<std::size_t>(count) * dt.extent();
  OBS_SPAN_ARG("coll.allreduce", "coll", bytes);
  const CollFlow flow("coll.allreduce", bytes);
  auto plan = coll::plan_for(ps, s);
  // Both legs of the branch are chosen from data identical on every member
  // (op, count, plan, the process-global algorithm knob), so no rank can
  // diverge into the other algorithm.
  if (!op.commutative() || !hier_selected(*plan)) {
    pick("allreduce", op.commutative() ? "flat" : "ordered_chain");
    reduce(sendbuf, recvbuf, count, dt, op, 0);
    bcast(recvbuf, count, dt, 0);
    return;
  }
  pick("allreduce", "hier");
  std::vector<std::byte> stage;
  const void* contrib = resolve_contrib(sendbuf, recvbuf, bytes, &stage);
  const Ctx c = make_ctx(ps, s, plan, next_seq(s));
  with_region_poison(
      c, [&] { hier_allreduce(c, contrib, recvbuf, count, dt, op, bytes); });
}

void Communicator::gather(const void* sendbuf, int sendcount,
                          const Datatype& sdt, void* recvbuf, int recvcount,
                          const Datatype& rdt, int root) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  if (root < 0 || root >= s->size()) {
    s->errh.raise(ErrClass::root, "gather root out of range");
  }
  const bool root_in_place = sendbuf == in_place && s->myrank == root;
  if (sendbuf == in_place && s->myrank != root) {
    s->errh.raise(ErrClass::buffer, "MPI_IN_PLACE gather on non-root");
  }
  const std::size_t sbytes =
      root_in_place
          ? static_cast<std::size_t>(recvcount) * rdt.extent()
          : static_cast<std::size_t>(sendcount) * sdt.extent();
  const std::size_t rslot = static_cast<std::size_t>(recvcount) * rdt.extent();
  OBS_SPAN_ARG("coll.gather", "coll", sbytes);
  const CollFlow flow("coll.gather", sbytes);
  auto plan = coll::plan_for(ps, s);
  const Ctx c = make_ctx(ps, s, plan, next_seq(s));
  if (hier_selected(*plan)) {
    pick("gather", "hier");
    with_region_poison(c, [&] {
      hier_gather(c, root_in_place ? nullptr : sendbuf, sbytes, recvbuf, rslot,
                  recvcount, rdt, root, root_in_place);
    });
  } else {
    pick("gather", "flat");
    flat_gather(c, root_in_place ? nullptr : sendbuf, sendcount, sdt, recvbuf,
                recvcount, rdt, root, root_in_place);
  }
}

void Communicator::scatter(const void* sendbuf, int sendcount,
                           const Datatype& sdt, void* recvbuf, int recvcount,
                           const Datatype& rdt, int root) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  if (root < 0 || root >= s->size()) {
    s->errh.raise(ErrClass::root, "scatter root out of range");
  }
  const bool root_in_place = recvbuf == in_place && s->myrank == root;
  if (recvbuf == in_place && s->myrank != root) {
    s->errh.raise(ErrClass::buffer, "MPI_IN_PLACE scatter on non-root");
  }
  const std::size_t sslot = static_cast<std::size_t>(sendcount) * sdt.extent();
  const std::size_t rbytes =
      root_in_place ? sslot
                    : static_cast<std::size_t>(recvcount) * rdt.extent();
  OBS_SPAN_ARG("coll.scatter", "coll", sslot);
  const CollFlow flow("coll.scatter", sslot);
  auto plan = coll::plan_for(ps, s);
  const Ctx c = make_ctx(ps, s, plan, next_seq(s));
  if (hier_selected(*plan)) {
    pick("scatter", "hier");
    with_region_poison(c, [&] {
      hier_scatter(c, sendbuf, sslot, root_in_place ? nullptr : recvbuf,
                   rbytes, root, root_in_place);
    });
  } else {
    pick("scatter", "flat");
    flat_scatter(c, sendbuf, sendcount, sdt,
                 root_in_place ? nullptr : recvbuf, recvcount, rdt, root,
                 root_in_place);
  }
}

void Communicator::allgather(const void* sendbuf, int sendcount,
                             const Datatype& sdt, void* recvbuf, int recvcount,
                             const Datatype& rdt) const {
  const auto& s = coll_state(state_);
  // MPI_IN_PLACE allgather: every rank's contribution already sits at its
  // block of recvbuf; route it through gather's root-in-place handling by
  // pointing each non-root contribution at the block.
  if (sendbuf == in_place) {
    const auto* mine = static_cast<const std::byte*>(recvbuf) +
                       static_cast<std::size_t>(s->myrank) *
                           static_cast<std::size_t>(recvcount) * rdt.extent();
    gather(s->myrank == 0 ? in_place : static_cast<const void*>(mine),
           recvcount, rdt, recvbuf, recvcount, rdt, 0);
  } else {
    gather(sendbuf, sendcount, sdt, recvbuf, recvcount, rdt, 0);
  }
  bcast(recvbuf, recvcount * s->size(), rdt, 0);
}

void Communicator::alltoall(const void* sendbuf, int sendcount,
                            const Datatype& sdt, void* recvbuf, int recvcount,
                            const Datatype& rdt) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  const std::size_t sslot = static_cast<std::size_t>(sendcount) * sdt.extent();
  const std::size_t rslot = static_cast<std::size_t>(recvcount) * rdt.extent();
  OBS_SPAN_ARG("coll.alltoall", "coll", sslot);
  const CollFlow flow("coll.alltoall", sslot);
  auto plan = coll::plan_for(ps, s);
  const Ctx c = make_ctx(ps, s, plan, next_seq(s));
  if (hier_selected(*plan)) {
    pick("alltoall", "hier");
    with_region_poison(
        c, [&] { hier_alltoall(c, sendbuf, sslot, recvbuf, rslot); });
  } else {
    pick("alltoall", "flat");
    flat_alltoall(c, sendbuf, sendcount, sdt, recvbuf, recvcount, rdt);
  }
}

void Communicator::exscan(const void* sendbuf, void* recvbuf, int count,
                          const Datatype& dt, const Op& op) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  const int n = s->size();
  const std::size_t bytes = static_cast<std::size_t>(count) * dt.extent();
  OBS_SPAN_ARG("coll.exscan", "coll", bytes);
  const CollFlow flow("coll.exscan", bytes);
  // IN_PLACE must be staged before the prefix overwrites recvbuf.
  std::vector<std::byte> stage;
  const void* contrib = resolve_contrib(sendbuf, recvbuf, bytes, &stage);
  const int tag = detail::internal_tag(next_seq(s), 0);

  std::vector<std::byte> prefix(bytes);
  if (s->myrank > 0) {
    ps.blocking_recv(*s, prefix.data(), count, dt, s->myrank - 1, tag);
    safe_copy(recvbuf, prefix.data(), bytes);
  }
  if (s->myrank + 1 < n) {
    if (s->myrank == 0) {
      ps.blocking_send(*s, contrib, count, dt, 1, tag, false);
    } else {
      op.apply(contrib, prefix.data(), count, dt);  // forward = prefix op local
      ps.blocking_send(*s, prefix.data(), count, dt, s->myrank + 1, tag, false);
    }
    note_wire(ps, *s, s->myrank + 1, bytes);
  }
}

void Communicator::reduce_scatter_block(const void* sendbuf, void* recvbuf,
                                        int recvcount, const Datatype& dt,
                                        const Op& op) const {
  const auto& s = coll_state(state_);
  const int n = s->size();
  const std::size_t block = static_cast<std::size_t>(recvcount) * dt.extent();
  std::vector<std::byte> full(block * static_cast<std::size_t>(n));
  // MPI_IN_PLACE: the full input vector sits in recvbuf (which must then be
  // size()*recvcount elements); block 0..recvcount is overwritten on return.
  const void* contrib = sendbuf == in_place ? recvbuf : sendbuf;
  reduce(contrib, full.data(), recvcount * n, dt, op, 0);
  scatter(full.data(), recvcount, dt, recvbuf, recvcount, dt, 0);
}

void Communicator::gatherv(const void* sendbuf, int sendcount,
                           const Datatype& sdt, void* recvbuf,
                           const std::vector<int>& recvcounts,
                           const std::vector<int>& displs, const Datatype& rdt,
                           int root) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  const int n = s->size();
  if (s->myrank == root &&
      (recvcounts.size() != static_cast<std::size_t>(n) ||
       displs.size() != static_cast<std::size_t>(n))) {
    s->errh.raise(ErrClass::arg, "gatherv counts/displs size mismatch");
  }
  OBS_SPAN("coll.gatherv", "coll");
  const CollFlow flow("coll.gatherv", 0);
  const int tag = detail::internal_tag(next_seq(s), 0);
  if (s->myrank == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    for (int r = 0; r < n; ++r) {
      std::byte* dst = out + static_cast<std::size_t>(
                                 displs[static_cast<std::size_t>(r)]) *
                                 rdt.extent();
      if (r == root) {
        if (sendbuf != in_place) {
          safe_copy(dst, sendbuf,
                    static_cast<std::size_t>(sendcount) * sdt.extent());
        }
      } else {
        ps.blocking_recv(*s, dst, recvcounts[static_cast<std::size_t>(r)], rdt,
                         r, tag);
      }
    }
  } else {
    if (sendbuf == in_place) {
      s->errh.raise(ErrClass::buffer, "MPI_IN_PLACE gatherv on non-root");
    }
    ps.blocking_send(*s, sendbuf, sendcount, sdt, root, tag, false);
    note_wire(ps, *s, root,
              static_cast<std::size_t>(sendcount) * sdt.extent());
  }
}

void Communicator::allgatherv(const void* sendbuf, int sendcount,
                              const Datatype& sdt, void* recvbuf,
                              const std::vector<int>& recvcounts,
                              const std::vector<int>& displs,
                              const Datatype& rdt) const {
  const auto& s = coll_state(state_);
  gatherv(sendbuf, sendcount, sdt, recvbuf, recvcounts, displs, rdt, 0);
  std::size_t total_elems = 0;
  for (std::size_t r = 0; r < recvcounts.size(); ++r) {
    total_elems = std::max(
        total_elems, static_cast<std::size_t>(displs[r]) +
                         static_cast<std::size_t>(recvcounts[r]));
  }
  bcast(recvbuf, static_cast<int>(total_elems), rdt, 0);
  (void)s;
}

void Communicator::scan(const void* sendbuf, void* recvbuf, int count,
                        const Datatype& dt, const Op& op) const {
  const auto& s = coll_state(state_);
  ProcState& ps = *s->ps;
  const int n = s->size();
  const std::size_t bytes = static_cast<std::size_t>(count) * dt.extent();
  OBS_SPAN_ARG("coll.scan", "coll", bytes);
  const CollFlow flow("coll.scan", bytes);
  const int tag = detail::internal_tag(next_seq(s), 0);

  if (sendbuf != in_place) {
    safe_copy(recvbuf, sendbuf, bytes);
  }
  if (s->myrank > 0) {
    std::vector<std::byte> prefix(bytes);
    ps.blocking_recv(*s, prefix.data(), count, dt, s->myrank - 1, tag);
    // recvbuf = prefix op local  (prefix of earlier ranks folds from left)
    std::vector<std::byte> local(bytes);
    safe_copy(local.data(), recvbuf, bytes);
    safe_copy(recvbuf, prefix.data(), bytes);
    op.apply(local.data(), recvbuf, count, dt);
  }
  if (s->myrank + 1 < n) {
    ps.blocking_send(*s, recvbuf, count, dt, s->myrank + 1, tag, false);
    note_wire(ps, *s, s->myrank + 1, bytes);
  }
}

}  // namespace sessmpi
