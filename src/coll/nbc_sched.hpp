#pragma once

// The nonblocking-collective engine's entry for the blocking hierarchical
// engine, which runs its leader barrier on it (engine.cpp head_barrier).

#include <cstdint>
#include <memory>

#include "detail/state.hpp"
#include "detail/tree.hpp"

namespace sessmpi::coll {

/// Start the barrier schedule (count-0 fan-in/fan-out) over this rank's
/// tree edges `t`, tagged with collective ordinal `seq`. MPI_Ibarrier runs
/// the same schedule over the binomial comm-rank tree rooted at 0.
detail::RequestPtr start_barrier(detail::ProcState& ps,
                                 const std::shared_ptr<detail::CommState>& comm,
                                 detail::Tree t, std::uint32_t seq);

}  // namespace sessmpi::coll
