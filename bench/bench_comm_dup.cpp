// Figure 4 reproduction: MPI_Comm_dup() per-iteration cost with 28
// processes per node, comparing the World-model consensus algorithm
// (MPI_Init baseline) against the Sessions prototype (exCID generator,
// which in the measured prototype acquired a PGCID per dup).
//
// Expected shape (paper §IV-C2): Sessions dup is slower, and the gap is
// accounted for by the PGCID acquisition (inter-server exchange). A third
// column shows the design's amortized path — subfield derivation — which
// the paper notes "a more complex series of communicator constructor calls
// could take advantage of".
//
// `--check` asserts the figure's qualitative claims at 8 ppn on 1 and 2
// nodes and exits nonzero if one fails: the Sessions dup (one PGCID per
// dup) costs more than the MPI_Init consensus dup at every node count, and
// derivation closes at least half of that gap.

#include "common.hpp"

namespace sessmpi::bench {
namespace {

constexpr int kIters = 8;

double time_dups(Communicator& parent) {
  base::Stopwatch sw;
  for (int i = 0; i < kIters; ++i) {
    Communicator d = parent.dup();
    d.free();
  }
  return sw.elapsed_ms() * 1000.0 / kIters;  // us per iteration
}

struct DupResult {
  double world_us = 0;       // MPI_Init + consensus
  double sessions_us = 0;    // Sessions + PGCID per dup (prototype mode)
  double derived_us = 0;     // Sessions + subfield derivation
};

DupResult measure(int nodes, int ppn) {
  DupResult r;
  {
    RankSamples t;
    run_cluster(nodes, ppn, [&](sim::Process&) {
      init();
      set_cid_method(CidMethod::consensus);
      Communicator world = comm_world();
      world.barrier();
      t.add(time_dups(world));
      world.barrier();
      finalize();
    });
    r.world_us = t.mean();
  }
  const auto sessions_case = [&](bool derive) {
    RankSamples t;
    run_cluster(nodes, ppn, [&](sim::Process&) {
      Session s = Session::init();
      set_excid_derivation(derive);
      Communicator c = Communicator::create_from_group(
          s.group_from_pset("mpi://world"), "dupbench");
      c.barrier();
      t.add(time_dups(c));
      c.barrier();
      c.free();
      s.finalize();
    });
    return t.mean();
  };
  r.sessions_us = sessions_case(false);
  r.derived_us = sessions_case(true);
  return r;
}

void sweep(const char* title, const char* note, int ppn,
           const std::vector<int>& node_counts) {
  using sessmpi::base::Table;
  print_header(title, note);
  Table t({"nodes", "procs", "MPI_Init (us)", "Sessions (us)", "overhead",
           "Sessions+derive (us)"});
  for (int nodes : node_counts) {
    const auto r = measure(nodes, ppn);
    t.add_row({std::to_string(nodes), std::to_string(nodes * ppn),
               Table::fmt(r.world_us, 1), Table::fmt(r.sessions_us, 1),
               Table::fmt((r.sessions_us / r.world_us - 1) * 100, 1) + "%",
               Table::fmt(r.derived_us, 1)});
  }
  t.print(std::cout);
}

int run_check() {
  constexpr int kPpn = 8;
  using sessmpi::base::Table;
  Table t({"nodes", "MPI_Init (us)", "Sessions (us)", "Sessions+derive (us)",
           "gap closed"});
  std::map<std::string, Metric> metrics;
  bool pass = true;
  for (int nodes : {1, 2}) {
    const auto r = measure(nodes, kPpn);
    const double gap = r.sessions_us - r.world_us;
    const double closed = gap > 0 ? (r.sessions_us - r.derived_us) / gap : 0;
    t.add_row({std::to_string(nodes), Table::fmt(r.world_us, 1),
               Table::fmt(r.sessions_us, 1), Table::fmt(r.derived_us, 1),
               Table::fmt(closed * 100, 1) + "%"});
    const std::string n = std::to_string(nodes);
    metrics["sessions_over_init_" + n + "n"] = {r.sessions_us / r.world_us,
                                               Better::higher};
    metrics["derive_gap_closed_" + n + "n"] = {closed, Better::higher};
    if (gap <= 0) {
      std::cout << "FAIL: at " << nodes
                << " node(s) the Sessions dup is not slower than MPI_Init\n";
      pass = false;
    } else if (closed < 0.5) {
      std::cout << "FAIL: at " << nodes
                << " node(s) derivation closes under half the gap\n";
      pass = false;
    }
  }
  t.print(std::cout);
  print_record("bench_comm_dup", std::move(metrics));
  std::cout << "COMM_DUP_CHECK " << (pass ? "PASS" : "FAIL")
            << " (Sessions > MPI_Init and derivation closes >= 50% of the "
               "gap at 1 and 2 nodes, 8 ppn)\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace sessmpi::bench

int main(int argc, char** argv) {
  const auto trace_dir =
      sessmpi::bench::trace_dir_from_args(argc, argv);
  using namespace sessmpi;
  using namespace sessmpi::bench;
  std::cout << "bench_comm_dup: reproduces Figure 4 (MPI_Comm_dup cost)\n";
  if (flag_present(argc, argv, "--check")) {
    return run_check();
  }
  sweep("Figure 4: MPI_Comm_dup per-iteration time (28 procs/node)",
        "us per dup, paper configuration. 'sessions' = prototype mode "
        "(PGCID per dup, as measured in the paper); 'derived' = exCID "
        "subfield derivation (the amortized design path). Note: at 112+ "
        "ranks this 2-core host is CPU-bound, which inflates the consensus "
        "baseline and compresses the gap; the 8-ppn sweep below shows the "
        "scaling shape cleanly.",
        28, {1, 2, 4});
  sweep("Figure 4 (scaling view): 8 procs/node",
        "same measurement at 8 ppn, where modeled costs dominate host "
        "noise across the full node sweep.",
        8, {1, 2, 4, 8});
  std::cout << "\nPaper checkpoints: Sessions dup pays the PGCID "
               "acquisition on top of the baseline at every scale; "
               "derivation removes all of that gap (the §IV-C2 'more "
               "complex series' remark).\n";
  print_record("bench_comm_dup");
  flush_trace(trace_dir, "bench_comm_dup");
  return 0;
}
