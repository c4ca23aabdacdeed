// Topology plan construction (DESIGN.md §13). One plan per group per
// member: built on a communicator's first collective, cached on its
// CommState, inherited by its dups, and dropped on revoke. The on-node
// shared region is per communicator and attached through the cluster-wide
// registry, so all members of a node resolve the same object without a
// handshake.

#include "sessmpi/coll/plan.hpp"

#include <map>

#include "detail/state.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/obs/hist.hpp"

namespace sessmpi::coll {

namespace {

std::shared_ptr<Plan> build_plan(detail::ProcState& ps,
                                 const detail::CommState& s) {
  const base::Topology& topo = ps.proc.cluster().topology();
  auto plan = std::make_shared<Plan>();
  const int n = s.size();
  plan->nranks = n;
  plan->myrank = s.myrank;
  plan->node_of.resize(static_cast<std::size_t>(n));
  plan->slot_of.resize(static_cast<std::size_t>(n));

  std::map<int, std::vector<int>> by_node;  // physical node id -> comm ranks
  for (int r = 0; r < n; ++r) {
    by_node[topo.node_of(s.global_of(r))].push_back(r);
  }
  plan->phys_node = topo.node_of(ps.proc.rank());
  for (auto& [phys, members] : by_node) {
    const int idx = static_cast<int>(plan->node_members.size());
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      plan->node_of[static_cast<std::size_t>(members[pos])] = idx;
      plan->slot_of[static_cast<std::size_t>(members[pos])] =
          static_cast<int>(pos);
    }
    plan->leaders.push_back(members.front());
    plan->node_contiguous.push_back(
        members.back() - members.front() + 1 == static_cast<int>(members.size())
            ? 1
            : 0);
    plan->multi_member = plan->multi_member || members.size() > 1;
    if (phys == plan->phys_node) {
      plan->my_node = idx;
    }
    plan->node_members.push_back(std::move(members));
  }

  const std::vector<int>& mine =
      plan->node_members[static_cast<std::size_t>(plan->my_node)];
  plan->on_node = static_cast<int>(mine.size());
  plan->my_slot = plan->slot_of[static_cast<std::size_t>(s.myrank)];
  plan->i_am_leader =
      plan->leaders[static_cast<std::size_t>(plan->my_node)] == s.myrank;

  // Socket grouping of my node's members: the intra-node fold order.
  std::map<int, std::vector<int>> by_socket;
  for (int m : mine) {
    by_socket[topo.socket_of(s.global_of(m))].push_back(m);
    plan->my_node_globals.push_back(s.global_of(m));
  }
  for (auto& [sock, members] : by_socket) {
    plan->my_sockets.push_back(std::move(members));
  }

  plan->depth = (plan->node_members.size() > 1 ? 1 : 0) +
                (plan->multi_member ? 1 : 0) +
                (plan->my_sockets.size() > 1 ? 1 : 0);
  if (plan->depth == 0) {
    plan->depth = 1;
  }

  static const auto c_builds = base::counter("coll.plan_builds");
  c_builds.add();
  static obs::Histogram& depth_hist = obs::histogram("coll.tree_depth");
  depth_hist.record(static_cast<std::uint64_t>(plan->depth));
  return plan;
}

}  // namespace

PlanView plan_for(detail::ProcState& ps,
                  const std::shared_ptr<detail::CommState>& s) {
  std::lock_guard lock(ps.mu);
  if (!s->coll_plan) {
    s->coll_plan = build_plan(ps, *s);
  }
  PlanView view{std::static_pointer_cast<const Plan>(s->coll_plan),
                std::static_pointer_cast<NodeShared>(s->coll_region)};
  if (view->on_node > 1 && !view.region) {
    RegionKey key;
    key.node = view->phys_node;
    if (s->uses_excid) {
      key.excid_hi = s->excid_space.id().hi;
      key.excid_lo = s->excid_space.id().lo;
    } else {
      key.cid = s->cid;
    }
    view.region = attach_region(ps.proc.cluster(), key, view->on_node);
    s->coll_region = view.region;
  }
  return view;
}

}  // namespace sessmpi::coll
