// Nonblocking collectives (MPI_Ibarrier / MPI_Ibcast / MPI_Iallreduce) and
// the hierarchical engine's leader barrier: one schedule engine.
//
// Every operation is the same two-phase schedule, driven to completion by
// the progress engine through NbcOp::advance:
//   fan-in   a rank folds its up-children's partials into its own and sends
//            the result to its up-parent (ibcast has no fan-in);
//   fan-out  the value flows from the down-parent into the result buffer
//            and on to the down-children.
// Ibarrier and the leader barrier run it at count 0 over a binomial tree
// rooted at member 0. Ibcast and commutative iallreduce run it over a
// plan-shaped tree: members hang off their node head, and heads form a
// binomial tree over node indices. Non-commutative iallreduce folds up the
// strict rank-ordered chain 0 -> n-1 (bit-identical to the blocking path)
// and fans out down a binomial tree rooted at n-1.
//
// Schedules use only fabric edges (no shm publications): a nonblocking
// operation may complete from any thread's progress pass, so it cannot
// owner-spin on a shared slot the way the blocking path does; the
// hierarchy still cuts cross-node traffic to one message per node pair.
//
// Failure protocol. One poison rule: a marker is a message whose byte count
// differs from what its edge expects — empty on payload edges, one byte on
// count-0 edges, which post one byte of receive capacity for it. One abort
// path: a rank that sees a failed or poisoned sub-receive floods markers
// down every edge it still owes a message on (never to a failed rank, never
// back to a rank that poisoned it), retires the sub-receives that still
// wait for data and finishes the request with the error. Every survivor
// learns of the abort the same way, and no sub-receive outlives its
// operation.

#include "nbc_sched.hpp"

#include <cstring>
#include <memory>
#include <vector>

#include "sessmpi/base/stats.hpp"
#include "sessmpi/coll/plan.hpp"
#include "sessmpi/comm.hpp"

namespace sessmpi {

using detail::CommState;
using detail::NbcOp;
using detail::ProcState;
using detail::RequestImpl;
using detail::RequestPtr;
using detail::Tree;

namespace {

const std::shared_ptr<CommState>& nbc_state(
    const std::shared_ptr<CommState>& s) {
  if (!s || s->freed) {
    throw Error(ErrClass::comm, "collective on invalid communicator");
  }
  return s;
}

std::uint32_t next_seq(const std::shared_ptr<CommState>& s) {
  std::lock_guard lock(s->ps->mu);
  return s->coll_seq++;
}

/// A request that is complete on creation (single-member communicators).
RequestPtr done_request(ProcState& ps, const std::shared_ptr<CommState>& s) {
  RequestPtr req = ps.make_request();
  req->ps = &ps;
  req->comm = s.get();
  req->finish(Status{});
  return req;
}

/// Plan-shaped tree for a rooted operation: members hang off their node
/// head, heads form a binomial tree over node indices (virtual-rotated so
/// the root's node is the tree root; the root itself leads its node).
Tree plan_tree(const coll::Plan& p, int myrank, int root) {
  const int nh = static_cast<int>(p.leaders.size());
  const int rootnode = p.node_of[static_cast<std::size_t>(root)];
  const auto head_of = [&](int node) {
    return node == rootnode ? root
                            : p.leaders[static_cast<std::size_t>(node)];
  };
  const int my_head = head_of(p.my_node);
  if (myrank != my_head) {
    Tree t;
    t.parent = my_head;
    return t;
  }
  Tree t = detail::mapped_tree(
      (p.my_node - rootnode + nh) % nh, nh,
      [&](int v) { return head_of((v + rootnode) % nh); });
  for (int m : p.node_members[static_cast<std::size_t>(p.my_node)]) {
    if (m != myrank) {
      t.children.push_back(m);
    }
  }
  return t;
}

/// One operation: fan-in over `up`, then fan-out over `down`.
struct Sched {
  std::shared_ptr<CommState> comm;
  void* buf = nullptr;  ///< result buffer (unused at count 0)
  int count = 0;
  Datatype dt = Datatype::byte();
  Op op = Op::sum();
  bool ordered = false;  ///< non-commutative: a child's partial folds left
  std::size_t edge_bytes = 0;  ///< what every edge carries
  std::byte sink{};            ///< receive target of count-0 edges
  int tag_up = 0;
  int tag_down = 0;
  Tree up;
  Tree down;
  std::vector<std::byte> acc;  ///< running partial, starts as my contribution
  std::vector<std::vector<std::byte>> cbufs;  ///< one per up-child
  std::vector<RequestPtr> crecvs;             ///< partials from up-children
  std::vector<bool> folded;
  RequestPtr precv;                ///< value from the down-parent
  std::vector<RequestPtr> sends;   ///< partial up, value down
  bool sent_up = false;            ///< ibcast starts here
  bool forwarded = false;
};

/// The poison rule: an edge failed once its receive completed with an
/// error, or with a byte count other than the one the edge expects.
bool poisoned(const RequestPtr& r, std::size_t edge_bytes) {
  return r->done() && (r->status.error != ErrClass::success ||
                       r->status.count_bytes != edge_bytes);
}

/// Send on a tree edge. A peer that cannot be reached (one that failed
/// before first contact) fails the send instead of unwinding the progress
/// engine in the middle of the schedule.
RequestPtr edge_send(ProcState& ps, const Sched& sc, const void* buf,
                     int count, const Datatype& dt, int dst, int tag) {
  try {
    return ps.isend_impl(*sc.comm, buf, count, dt, dst, tag, false);
  } catch (const Error& e) {
    RequestPtr r = ps.make_request();
    Status st;
    st.error = e.error_class();
    r->finish(st);
    return r;
  }
}

/// The abort path: flood markers down the edges this rank still owes a
/// message on, skipping failed ranks and ranks that poisoned us (they
/// already retired their receives, so a marker would linger as a stale
/// packet), then retire the operation with `cls`.
void abort_sched(ProcState& ps, RequestImpl& req, const Sched& sc,
                 ErrClass cls) {
  static const std::byte kMarker{1};
  fabric::Fabric& fab = ps.proc.cluster().fabric();
  const auto flood = [&](int dst, int tag) {
    if (fab.is_failed(sc.comm->global_of(dst))) {
      return;
    }
    for (const RequestPtr& r : req.nbc->recvs) {
      if (r->src == dst && poisoned(r, sc.edge_bytes)) {
        return;
      }
    }
    edge_send(ps, sc, &kMarker, sc.edge_bytes == 0 ? 1 : 0, Datatype::byte(),
              dst, tag);
  };
  if (!sc.sent_up && sc.up.parent >= 0) {
    flood(sc.up.parent, sc.tag_up);
  }
  if (!sc.forwarded) {
    for (int child : sc.down.children) {
      flood(child, sc.tag_down);
    }
  }
  Status st;
  st.error = cls;
  ps.retire_nbc_locked(req, st);
}

void fold(Sched& sc, std::vector<std::byte>& partial) {
  if (sc.count == 0) {
    return;
  }
  if (sc.ordered) {
    // `partial` folds the ranks before mine: it stays the left operand.
    sc.op.apply(sc.acc.data(), partial.data(), sc.count, sc.dt);
    sc.acc.swap(partial);
  } else {
    sc.op.apply(partial.data(), sc.acc.data(), sc.count, sc.dt);
  }
}

bool advance(ProcState& ps, RequestImpl& req, Sched& sc) {
  for (const RequestPtr& r : req.nbc->recvs) {
    if (poisoned(r, sc.edge_bytes)) {
      abort_sched(ps, req, sc,
                  r->status.error != ErrClass::success
                      ? r->status.error
                      : ErrClass::rte_proc_failed);
      return true;
    }
  }
  if (!sc.sent_up) {
    bool all_folded = true;
    for (std::size_t i = 0; i < sc.crecvs.size(); ++i) {
      if (!sc.crecvs[i]->done()) {
        all_folded = false;
      } else if (!sc.folded[i]) {
        sc.folded[i] = true;
        fold(sc, sc.cbufs[i]);
      }
    }
    if (!all_folded) {
      return false;
    }
    sc.sent_up = true;
    if (sc.up.parent >= 0) {
      sc.sends.push_back(edge_send(ps, sc, sc.acc.data(), sc.count, sc.dt,
                                   sc.up.parent, sc.tag_up));
    } else if (!sc.acc.empty()) {
      std::memcpy(sc.buf, sc.acc.data(), sc.acc.size());
    }
  }
  if (!sc.forwarded) {
    if (sc.down.parent >= 0 && !sc.precv->done()) {
      return false;
    }
    sc.forwarded = true;
    for (int child : sc.down.children) {
      sc.sends.push_back(edge_send(ps, sc, sc.buf, sc.count, sc.dt, child,
                                   sc.tag_down));
    }
  }
  Status st;
  for (const RequestPtr& r : sc.sends) {
    if (!r->done()) {
      return false;
    }
    if (r->status.error != ErrClass::success) {
      st.error = r->status.error;
    }
  }
  req.finish(st);
  return true;
}

/// Post the schedule's sub-receives, register it with the progress engine
/// and kick it once (a leaf may fire its first sends immediately).
RequestPtr launch(ProcState& ps, const std::shared_ptr<Sched>& sc,
                  std::uint32_t seq) {
  sc->tag_up = detail::internal_tag(seq, 0);
  sc->tag_down = detail::internal_tag(seq, 1);
  sc->edge_bytes = static_cast<std::size_t>(sc->count) * sc->dt.size();
  auto nbc = std::make_unique<NbcOp>();
  nbc->comm = sc->comm;
  const auto post = [&](void* dst, int src, int tag) {
    RequestPtr r =
        sc->count == 0
            ? ps.irecv_impl(*sc->comm, &sc->sink, 1, Datatype::byte(), src, tag)
            : ps.irecv_impl(*sc->comm, dst, sc->count, sc->dt, src, tag);
    nbc->recvs.push_back(r);
    return r;
  };
  const std::size_t nc = sc->up.children.size();
  sc->cbufs.assign(nc, std::vector<std::byte>(sc->acc.size()));
  sc->folded.assign(nc, false);
  for (std::size_t i = 0; i < nc; ++i) {
    sc->crecvs.push_back(
        post(sc->cbufs[i].data(), sc->up.children[i], sc->tag_up));
  }
  if (sc->down.parent >= 0) {
    sc->precv = post(sc->buf, sc->down.parent, sc->tag_down);
  }
  nbc->advance = [sc](ProcState& p, RequestImpl& r) {
    return advance(p, r, *sc);
  };

  RequestPtr req = ps.make_request();
  req->ps = &ps;
  req->comm = sc->comm.get();
  req->kind = RequestImpl::Kind::nbc;
  req->nbc = std::move(nbc);
  std::lock_guard lock(ps.mu);
  ps.nbc_live.push_back(req);
  ps.advance_nbc_locked();
  return req;
}

}  // namespace

RequestPtr coll::start_barrier(ProcState& ps,
                               const std::shared_ptr<CommState>& comm, Tree t,
                               std::uint32_t seq) {
  auto sc = std::make_shared<Sched>();
  sc->comm = comm;
  sc->up = t;
  sc->down = std::move(t);
  return launch(ps, sc, seq);
}

Request Communicator::ibarrier() const {
  const auto& s = nbc_state(state_);
  Tree t;
  detail::tree(s->myrank, s->size(), &t.parent, &t.children);
  return Request{coll::start_barrier(*s->ps, s, std::move(t), next_seq(s))};
}

Request Communicator::ibcast(void* buf, int count, const Datatype& dt,
                             int root) const {
  const auto& s = nbc_state(state_);
  ProcState& ps = *s->ps;
  const int n = s->size();
  if (root < 0 || root >= n) {
    s->errh.raise(ErrClass::root, "ibcast root out of range");
  }
  base::counters().add("coll.algo.ibcast.sched");
  if (n == 1) {
    return Request{done_request(ps, s)};
  }
  auto plan = coll::plan_for(ps, s);
  auto sc = std::make_shared<Sched>();
  sc->comm = s;
  sc->buf = buf;
  sc->count = count;
  sc->dt = dt;
  sc->down = plan_tree(*plan, s->myrank, root);
  sc->sent_up = true;  // no fan-in: the value starts at the root
  return Request{launch(ps, sc, next_seq(s))};
}

Request Communicator::iallreduce(const void* sendbuf, void* recvbuf, int count,
                                 const Datatype& dt, const Op& op) const {
  const auto& s = nbc_state(state_);
  ProcState& ps = *s->ps;
  const int n = s->size();
  const std::size_t bytes = static_cast<std::size_t>(count) * dt.extent();

  // Stage the contribution up front: MPI_IN_PLACE contributions live in
  // recvbuf, which the fan-out overwrites.
  std::vector<std::byte> contrib(bytes);
  if (bytes > 0) {
    std::memcpy(contrib.data(), sendbuf == in_place ? recvbuf : sendbuf,
                bytes);
  }
  if (n == 1) {
    if (bytes > 0) {
      std::memcpy(recvbuf, contrib.data(), bytes);
    }
    return Request{done_request(ps, s)};
  }

  const std::uint32_t seq = next_seq(s);
  auto sc = std::make_shared<Sched>();
  sc->comm = s;
  sc->buf = recvbuf;
  sc->count = count;
  sc->dt = dt;
  sc->op = op;
  sc->acc = std::move(contrib);
  if (!op.commutative()) {
    base::counters().add("coll.algo.iallreduce.ordered_chain");
    // Fold up the chain 0 -> n-1; fan out down a tree rooted at n-1.
    const int me = s->myrank;
    sc->ordered = true;
    if (me + 1 < n) {
      sc->up.parent = me + 1;
    }
    if (me > 0) {
      sc->up.children.push_back(me - 1);
    }
    sc->down = detail::mapped_tree((me + 1) % n, n,
                                   [n](int v) { return (v + n - 1) % n; });
  } else {
    base::counters().add("coll.algo.iallreduce.sched");
    auto plan = coll::plan_for(ps, s);
    sc->up = plan_tree(*plan, s->myrank,
                       plan->leaders.empty() ? 0 : plan->leaders.front());
    sc->down = sc->up;
  }
  return Request{launch(ps, sc, seq)};
}

}  // namespace sessmpi
