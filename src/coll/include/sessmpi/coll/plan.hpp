#pragma once

// Topology plan for the hierarchical collective engine. Built lazily from
// the sim cluster's node/socket layout on the first collective, cached on
// the CommState, and shared with every communicator dup'ed from it (same
// group, same rank, same topology: the plan is immutable and identical).
// Each communicator attaches its own on-node region beside the plan.
// Revoke drops both; a post-shrink communicator is a fresh CommState, so
// membership changes always build a new plan.

#include <memory>
#include <vector>

#include "sessmpi/base/topology.hpp"
#include "sessmpi/coll/shm.hpp"

namespace sessmpi::detail {
struct CommState;
struct ProcState;
}  // namespace sessmpi::detail

namespace sessmpi::coll {

struct Plan {
  int nranks = 0;
  int myrank = -1;

  /// Comm ranks grouped by hosting node, node index ascending by physical
  /// node id; members ascending by comm rank. Identical on every member.
  std::vector<std::vector<int>> node_members;
  std::vector<int> leaders;                 ///< lowest comm rank per node
  std::vector<std::uint8_t> node_contiguous;  ///< comm ranks form one run
  std::vector<int> node_of;  ///< comm rank -> plan node index
  std::vector<int> slot_of;  ///< comm rank -> position within its node

  int my_node = 0;
  int my_slot = 0;
  int on_node = 1;  ///< members of my node (including me)
  bool i_am_leader = true;
  bool multi_member = false;  ///< any node hosts > 1 member

  /// My node's members grouped by socket (socket index ascending, comm
  /// rank ascending within a socket); the intra-node fold order.
  std::vector<std::vector<int>> my_sockets;

  /// Tree depth the hierarchy gives this rank's traffic: cross-node level,
  /// node level, plus a socket level when the node spans sockets.
  int depth = 1;

  /// Global ranks of my node's members (liveness polling while spinning).
  std::vector<base::Rank> my_node_globals;

  /// Physical node id hosting this rank (the region registry key).
  int phys_node = 0;
};

/// What one collective runs on: the (possibly inherited) topology plan and
/// this communicator's own on-node region. Dereferences to the plan.
struct PlanView {
  std::shared_ptr<const Plan> plan;
  /// On-node shared region; null when this rank is alone on its node.
  std::shared_ptr<NodeShared> region;

  const Plan& operator*() const noexcept { return *plan; }
  const Plan* operator->() const noexcept { return plan.get(); }
};

/// The communicator's plan and region. Under ps.mu, builds the plan unless
/// the communicator has one (its own or inherited from its dup parent),
/// then attaches the region on first use.
PlanView plan_for(detail::ProcState& ps,
                  const std::shared_ptr<detail::CommState>& s);

}  // namespace sessmpi::coll
