// Figure 7 reproduction: normalized execution times of a 2MESH-style
// coupled multi-physics application, baseline (QUO 1.3 low-overhead
// quiescence) vs MPI Sessions (QUO_create internally initializes a session;
// QUO_barrier becomes an MPI_Ibarrier + nanosleep loop).
//
// 2MESH itself is a closed LANL production code; this driver reproduces the
// structure the paper describes (§IV-E): library L0 runs MPI-everywhere
// phases on an adaptive structured mesh, interleaved with L1's MPI+threads
// phases on a second mesh, with QUO quiescing the node's non-leader ranks
// during each threaded phase. Problems P1/P2 ran at 256 ranks and P3 at
// 1024 in the paper; ranks and work are scaled for the simulator host.
//
// Expected shape: Sessions imposes minimal (<= ~3%) overhead, attributable
// to the emulated low-perturbation barrier.

#include "common.hpp"
#include "sessmpi/quo/quo.hpp"

namespace sessmpi::bench {
namespace {

struct Problem {
  const char* name;
  int nodes;
  int ppn;
  int steps;              // coupled timesteps
  std::int64_t l0_work_ns;  // per-rank L0 compute per step
  std::int64_t l1_work_ns;  // leader-side L1 threaded compute per step
  int halo_bytes;         // L0 halo exchange payload
};

/// One coupled timestep: L0 stencil (compute + ring halo + allreduce),
/// then the L1 threaded phase under QUO quiescence.
void timestep(const Communicator& world, quo::QuoContext& q,
              const Problem& prob, std::vector<double>& field) {
  // --- L0: MPI-everywhere phase ------------------------------------------
  base::precise_delay(prob.l0_work_ns);
  const int n = world.size();
  const int me = world.rank();
  const int next = (me + 1) % n;
  const int prev = (me - 1 + n) % n;
  const int halo_elems = prob.halo_bytes / 8;
  world.sendrecv(field.data(), halo_elems, Datatype::float64(), next, 1,
                 field.data() + halo_elems, halo_elems, Datatype::float64(),
                 prev, 1);
  double local = field[0], residual = 0.0;
  world.allreduce(&local, &residual, 1, Datatype::float64(), Op::sum());
  field[0] = residual / n;

  // --- L1: MPI+threads phase, non-leaders quiesce ---------------------------
  if (q.is_node_leader()) {
    q.bind_push(quo::BindPolicy::node);  // leader fans out across the node
    base::precise_delay(prob.l1_work_ns);
    q.bind_pop();
  }
  q.barrier();  // quiescence point: QUO_barrier vs sessions Ibarrier loop
}

double run_problem(const Problem& prob, quo::BarrierKind kind) {
  RankSamples wall;
  run_cluster(prob.nodes, prob.ppn, [&](sim::Process&) {
    init(ThreadLevel::multiple);
    Communicator world = comm_world();
    quo::QuoContext::Options qopts;
    qopts.barrier = kind;
    // Quiesced ranks probe the Ibarrier once per ms: low-perturbation, as
    // the paper's nanosleep loop intends.
    qopts.quiesce_sleep_ns = 500'000;
    quo::QuoContext q = quo::QuoContext::create(world, qopts);
    std::vector<double> field(
        static_cast<std::size_t>(prob.halo_bytes / 8) * 2, 1.0);

    world.barrier();
    base::Stopwatch sw;
    for (int step = 0; step < prob.steps; ++step) {
      timestep(world, q, prob, field);
    }
    world.barrier();
    wall.add(sw.elapsed_ms());
    q.free();
    finalize();
  });
  return wall.max();
}

}  // namespace
}  // namespace sessmpi::bench

int main() {
  using namespace sessmpi;
  using namespace sessmpi::bench;
  std::cout << "bench_twomesh: reproduces Figure 7 (2MESH normalized "
               "execution times, baseline vs Sessions)\n";

  // P1/P2: two different physics configurations at the smaller job size;
  // P3: the larger job (paper: 256/256/1024 ranks; scaled for this host).
  const Problem problems[] = {
      {"P1", 2, 8, 5, 4'000'000, 60'000'000, 4096},
      {"P2", 2, 8, 5, 10'000'000, 45'000'000, 16384},
      {"P3", 4, 8, 4, 4'000'000, 60'000'000, 4096},
  };

  print_header("Figure 7: normalized 2MESH execution times",
               "wall-clock normalized to the baseline (QUO 1.3 quiescence).");
  sessmpi::base::Table t({"problem", "ranks", "baseline (ms)",
                          "sessions (ms)", "normalized", "overhead"});
  for (const Problem& prob : problems) {
    const double base_ms = run_problem(prob, quo::BarrierKind::baseline);
    const double sess_ms = run_problem(prob, quo::BarrierKind::sessions);
    t.add_row({prob.name, std::to_string(prob.nodes * prob.ppn),
               sessmpi::base::Table::fmt(base_ms),
               sessmpi::base::Table::fmt(sess_ms),
               sessmpi::base::Table::fmt(sess_ms / base_ms, 3),
               sessmpi::base::Table::fmt((sess_ms / base_ms - 1) * 100, 1) +
                   "%"});
  }
  t.print(std::cout);
  std::cout << "\nPaper checkpoint: sessions overhead <= ~3% on every "
               "problem, attributable to the emulated (Ibarrier+nanosleep) "
               "quiescence replacing QUO's low-overhead barrier.\n";
  print_record("bench_twomesh");
  return 0;
}
