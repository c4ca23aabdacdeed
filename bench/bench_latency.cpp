// Figure 5a reproduction: osu_latency on one node (2 processes), comparing
// MPI_Init (baseline fast-path matching from the start) with MPI Sessions
// (exCID handshake on the first exchange, fast path afterwards).
//
// Expected shape (paper §IV-C3): steady-state latency is essentially
// identical — the handshake completes during warmup — with only noise-level
// differences across message sizes.

#include "common.hpp"

namespace sessmpi::bench {
namespace {

constexpr int kWarmup = 10;

int iterations_for(std::size_t size) { return size >= 16384 ? 25 : 100; }

/// Ping-pong latency (us, one-way) for a given payload size on `comm`.
double pingpong_us(const Communicator& comm, std::size_t size) {
  std::vector<std::byte> buf(std::max<std::size_t>(size, 1));
  const int me = comm.rank();
  const int other = 1 - me;
  const int iters = iterations_for(size);
  const int n = static_cast<int>(size);

  for (int i = 0; i < kWarmup; ++i) {
    if (me == 0) {
      comm.send(buf.data(), n, Datatype::byte(), other, 1);
      comm.recv(buf.data(), n, Datatype::byte(), other, 1);
    } else {
      comm.recv(buf.data(), n, Datatype::byte(), other, 1);
      comm.send(buf.data(), n, Datatype::byte(), other, 1);
    }
  }
  base::Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    if (me == 0) {
      comm.send(buf.data(), n, Datatype::byte(), other, 1);
      comm.recv(buf.data(), n, Datatype::byte(), other, 1);
    } else {
      comm.recv(buf.data(), n, Datatype::byte(), other, 1);
      comm.send(buf.data(), n, Datatype::byte(), other, 1);
    }
  }
  return sw.elapsed_us() / (2.0 * iters);
}

}  // namespace
}  // namespace sessmpi::bench

int main(int argc, char** argv) {
  const auto trace_dir =
      sessmpi::bench::trace_dir_from_args(argc, argv);
  using namespace sessmpi;
  using namespace sessmpi::bench;
  std::cout << "bench_latency: reproduces Figure 5a (on-node osu_latency, "
               "MPI_Init vs Sessions)\n";

  const std::vector<std::size_t> sizes{0,   1,    8,    64,   512,
                                       4096, 16384, 65536};
  std::map<std::size_t, double> world_lat, sess_lat;

  run_cluster(1, 2, [&](sim::Process& p) {
    init();
    Communicator world = comm_world();
    for (std::size_t size : sizes) {
      const double us = pingpong_us(world, size);
      if (p.rank() == 0) {
        world_lat[size] = us;
      }
    }
    finalize();
  });
  run_cluster(1, 2, [&](sim::Process& p) {
    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "latency");
    for (std::size_t size : sizes) {
      const double us = pingpong_us(c, size);
      if (p.rank() == 0) {
        sess_lat[size] = us;
      }
    }
    c.free();
    s.finalize();
  });

  print_header("Figure 5a: relative on-node latency by message size",
               "one-way latency, 2 processes on one node.");
  sessmpi::base::Table t(
      {"size (B)", "MPI_Init (us)", "Sessions (us)", "Sessions/Init"});
  for (std::size_t size : sizes) {
    t.add_row({std::to_string(size),
               sessmpi::base::Table::fmt(world_lat[size]),
               sessmpi::base::Table::fmt(sess_lat[size]),
               sessmpi::base::Table::fmt(sess_lat[size] / world_lat[size], 3)});
  }
  t.print(std::cout);
  std::cout << "\nPaper checkpoint: ratio ~= 1.0 across sizes (the exCID "
               "handshake completes during warmup; steady state uses the "
               "same 14-byte fast path).\n";
  print_record("bench_latency");
  flush_trace(trace_dir, "bench_latency");
  return 0;
}
