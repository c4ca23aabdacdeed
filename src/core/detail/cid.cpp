#include "detail/cid.hpp"

#include <algorithm>

#include "detail/tree.hpp"
#include "sessmpi/obs/trace.hpp"

namespace sessmpi::detail {

namespace {

int position_of(const std::vector<int>& participants, int commrank) {
  auto it = std::find(participants.begin(), participants.end(), commrank);
  if (it == participants.end()) {
    throw Error(ErrClass::intern, "caller not in consensus participant list");
  }
  return static_cast<int>(std::distance(participants.begin(), it));
}

}  // namespace

std::array<std::int64_t, 2> subset_allreduce_max2(
    ProcState& ps, const std::shared_ptr<CommState>& parent,
    const std::vector<int>& participants, std::array<std::int64_t, 2> value,
    int base_tag) {
  const int n = static_cast<int>(participants.size());
  const int me = position_of(participants, parent->myrank);
  const Datatype& dt = Datatype::int64();

  // Binomial fan-in to position 0 with element-wise max, then fan-out of
  // the result, largest subtree first.
  const Tree t = mapped_tree(me, n, [&](int pos) {
    return participants[static_cast<std::size_t>(pos)];
  });
  for (int child : t.children) {
    std::array<std::int64_t, 2> incoming{};
    ps.blocking_recv(*parent, incoming.data(), 2, dt, child, base_tag);
    value[0] = std::max(value[0], incoming[0]);
    value[1] = std::max(value[1], incoming[1]);
  }
  if (t.parent >= 0) {
    ps.blocking_send(*parent, value.data(), 2, dt, t.parent, base_tag,
                     /*sync=*/false);
    ps.blocking_recv(*parent, value.data(), 2, dt, t.parent, base_tag - 1);
  }
  for (auto it = t.children.rbegin(); it != t.children.rend(); ++it) {
    ps.blocking_send(*parent, value.data(), 2, dt, *it, base_tag - 1,
                     /*sync=*/false);
  }
  return value;
}

std::uint16_t consensus_cid(ProcState& ps,
                            const std::shared_ptr<CommState>& parent,
                            const std::vector<int>& participants, int base_tag,
                            int* rounds_out) {
  OBS_SPAN("cid.consensus", "core");
  std::uint32_t start = 0;
  int round = 0;
  for (;;) {
    // Reserve the proposal before agreeing on it: unanimity then means the
    // slot is already ours, so no thread of this process can race us between
    // the allreduce and the claim (which would desynchronize participants).
    std::uint32_t proposal;
    {
      std::lock_guard lock(ps.mu);
      auto lowest = ps.cid_alloc.lowest_free(start);
      if (!lowest) {
        throw Error(ErrClass::other, "CID space exhausted during consensus");
      }
      proposal = *lowest;
      ps.cid_alloc.claim(proposal);
    }
    const auto agreed = subset_allreduce_max2(
        ps, parent, participants,
        {static_cast<std::int64_t>(proposal),
         -static_cast<std::int64_t>(proposal)},
        base_tag - 2 * round);
    ++round;
    const auto max_prop = static_cast<std::uint32_t>(agreed[0]);
    const bool unanimous = agreed[0] == -agreed[1];
    if (unanimous) {
      if (rounds_out != nullptr) {
        *rounds_out = round;
      }
      return static_cast<std::uint16_t>(max_prop);
    }
    {
      std::lock_guard lock(ps.mu);
      ps.cid_alloc.release(proposal);
    }
    start = max_prop;
  }
}

}  // namespace sessmpi::detail
