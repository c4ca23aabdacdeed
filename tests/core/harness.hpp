#pragma once

// Shared helpers for core-layer tests: spin up a zero-cost simulated
// cluster and run an MPI program on every rank.

#include <functional>

#include <gtest/gtest.h>

#include "sessmpi/mpi.hpp"
#include "sessmpi/sim/cluster.hpp"

namespace sessmpi::testing {

inline sim::Cluster::Options zero_opts(int nodes, int ppn) {
  sim::Cluster::Options o;
  o.topo = {nodes, ppn};
  o.cost = base::CostModel::zero();
  return o;
}

/// Run `body` on every rank of a fresh zero-cost cluster.
inline void mpi_run(int nodes, int ppn,
                    const std::function<void(sim::Process&)>& body) {
  sim::Cluster cluster{zero_opts(nodes, ppn)};
  cluster.run(body);
}

/// Run `body` on every rank between world-model init() and finalize().
inline void world_run(int nodes, int ppn,
                      const std::function<void(sim::Process&)>& body) {
  mpi_run(nodes, ppn, [&](sim::Process& p) {
    init();
    body(p);
    finalize();
  });
}

/// Run `fn` and require it to raise an Error of class `cls`.
template <typename Fn>
void expect_error_class(base::ErrClass cls, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "no error raised";
  } catch (const Error& e) {
    EXPECT_EQ(e.error_class(), cls) << e.what();
  }
}

}  // namespace sessmpi::testing
