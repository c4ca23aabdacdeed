// Figure 6 reproduction: HPCC-style 8-byte natural-order and random-order
// ring latency, 28 processes per node, baseline Open MPI (unmodified app,
// MPI_Init) vs the sessions-enabled build where main_bench_lat_bw creates
// its own MPI Session and communicator (compartmentalized component, the
// backwards-compatibility demonstration of §IV-D).
//
// Expected shape: the two are practically identical at every node count
// for both ring orders.

#include <random>

#include "common.hpp"

namespace sessmpi::bench {
namespace {

constexpr int kIters = 20;
constexpr int kWarmup = 5;

/// One ring-latency measurement on `comm` following the HPCC bench_lat_bw
/// scheme: every process sendrecvs 8 bytes around the ring; latency is the
/// average time per iteration divided by 2 (two messages per hop).
double ring_latency_us(const Communicator& comm,
                       const std::vector<int>& order) {
  const int n = comm.size();
  const int me = comm.rank();
  int my_pos = 0;
  for (int i = 0; i < n; ++i) {
    if (order[static_cast<std::size_t>(i)] == me) {
      my_pos = i;
      break;
    }
  }
  const int next = order[static_cast<std::size_t>((my_pos + 1) % n)];
  const int prev = order[static_cast<std::size_t>((my_pos - 1 + n) % n)];
  std::uint64_t token_out = 0xABCD;
  std::uint64_t token_in = 0;

  const auto hop = [&] {
    // Both directions, as HPCC does for the ring benchmark.
    comm.sendrecv(&token_out, 1, Datatype::uint64(), next, 1, &token_in, 1,
                  Datatype::uint64(), prev, 1);
    comm.sendrecv(&token_out, 1, Datatype::uint64(), prev, 2, &token_in, 1,
                  Datatype::uint64(), next, 2);
  };
  for (int i = 0; i < kWarmup; ++i) {
    hop();
  }
  comm.barrier();
  base::Stopwatch sw;
  for (int i = 0; i < kIters; ++i) {
    hop();
  }
  const double us = sw.elapsed_us();
  comm.barrier();
  return us / kIters / 2.0;
}

std::vector<int> natural_order(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = i;
  }
  return v;
}

std::vector<int> random_order(int n) {
  std::vector<int> v = natural_order(n);
  std::mt19937 rng(12345);  // same permutation on every rank
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

struct RingResult {
  double natural_us = 0;
  double random_us = 0;
};

RingResult run_case(int nodes, int ppn, bool sessions) {
  RankSamples nat, rnd;
  run_cluster(nodes, ppn, [&](sim::Process&) {
    constexpr int kRepeats = 3;
    if (sessions) {
      // The modified HPCC: the benchmark's main() still uses MPI_Init; the
      // latency/bandwidth component internally switches to a session.
      init();
      {
        Session s = Session::init();
        Communicator c = Communicator::create_from_group(
            s.group_from_pset("mpi://world"), "hpcc_lat_bw");
        for (int rep = 0; rep < kRepeats; ++rep) {
          nat.add(ring_latency_us(c, natural_order(c.size())));
          rnd.add(ring_latency_us(c, random_order(c.size())));
        }
        c.free();
        s.finalize();
      }
      finalize();
    } else {
      init();
      Communicator world = comm_world();
      for (int rep = 0; rep < kRepeats; ++rep) {
        nat.add(ring_latency_us(world, natural_order(world.size())));
        rnd.add(ring_latency_us(world, random_order(world.size())));
      }
      finalize();
    }
  });
  return {nat.mean(), rnd.mean()};
}

}  // namespace
}  // namespace sessmpi::bench

int main() {
  using namespace sessmpi;
  using namespace sessmpi::bench;
  std::cout << "bench_hpcc_ring: reproduces Figures 6a/6b (HPCC 8-byte ring "
               "latency, 28 procs/node)\n";
  run_case(1, 8, false);  // uncounted warmup (allocators, page cache)
  print_header("Figures 6a (random ring) / 6b (natural ring)",
               "8-byte ring latency in us; baseline vs sessions-enabled "
               "bandwidth/latency component.");
  sessmpi::base::Table t({"nodes", "procs", "random base", "random sess",
                          "ratio", "natural base", "natural sess", "ratio"});
  for (int nodes : {1, 2, 4}) {
    const auto base_r = run_case(nodes, 28, false);
    const auto sess_r = run_case(nodes, 28, true);
    t.add_row({std::to_string(nodes), std::to_string(nodes * 28),
               sessmpi::base::Table::fmt(base_r.random_us),
               sessmpi::base::Table::fmt(sess_r.random_us),
               sessmpi::base::Table::fmt(sess_r.random_us / base_r.random_us, 3),
               sessmpi::base::Table::fmt(base_r.natural_us),
               sessmpi::base::Table::fmt(sess_r.natural_us),
               sessmpi::base::Table::fmt(sess_r.natural_us / base_r.natural_us,
                                         3)});
  }
  t.print(std::cout);
  std::cout << "\nPaper checkpoint: sessions latencies practically identical "
               "to the unmodified baseline for both ring orders; random "
               "order costs more than natural order once multiple nodes are "
               "involved (more inter-node hops).\n";
  print_record("bench_hpcc_ring");
  return 0;
}
