// Matching-engine cost on the message critical path, two levels:
//
//  1. A posted-depth x wildcard-fraction sweep through the real engine: a
//     2-rank cluster with the zero cost model (pure data-structure timing)
//     where the receiver keeps `depth` stale never-matching receives posted
//     (every 16th optionally ANY_SOURCE) while a burst of directed messages
//     flows. With linear-scan matching the per-message cost grows with
//     depth; with per-source match bins it must stay flat — `--smoke` gates
//     depth-256 at <= 3x depth-1 (CI regression fence, next to
//     `bench_pt2pt --smoke`).
//  2. google-benchmark micros for the underlying lookups (local-CID array
//     index vs exCID hash, slot allocator, exCID derivation) — skipped
//     under --smoke.

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "sessmpi/base/slot_allocator.hpp"
#include "sessmpi/excid.hpp"

namespace sessmpi {
namespace {

// --- engine sweep -----------------------------------------------------------

/// Tags from here up are never sent: receives posted with them sit in the
/// match structure for the whole measurement (stale depth).
constexpr int kStaleTagBase = 1'000'000;
constexpr int kBurst = 256;   ///< messages per round
constexpr int kRounds = 8;    ///< rounds per case

/// Per-message one-way cost (ns) with `depth` stale posted receives on the
/// receiver; every `wildcard_every`-th stale receive is ANY_SOURCE (0 =
/// all directed). Measured on the receiving rank across a burst so per-
/// message dispatch cost, not thread wake-up latency, dominates.
double sweep_case(int depth, int wildcard_every) {
  double ns_per_msg = 0;
  sim::Cluster::Options o;
  o.topo = {1, 2};
  o.cost = base::CostModel::zero();
  sim::Cluster cluster{o};
  cluster.run([&](sim::Process&) {
    init();
    Communicator world = comm_world();
    const int me = world.rank();
    const int peer = 1 - me;
    std::byte sink{};
    std::vector<Request> stale;
    if (me == 1) {
      stale.reserve(static_cast<std::size_t>(depth));
      for (int i = 0; i < depth; ++i) {
        const bool wild = wildcard_every > 0 && i % wildcard_every == 0;
        stale.push_back(world.irecv(&sink, 1, Datatype::byte(),
                                    wild ? any_source : peer,
                                    kStaleTagBase + i));
      }
    }
    std::vector<std::byte> buf(static_cast<std::size_t>(kBurst));
    std::byte ack{};
    world.barrier();

    base::Stopwatch sw;
    for (int round = 0; round < kRounds; ++round) {
      if (me == 0) {
        std::vector<Request> reqs;
        reqs.reserve(kBurst);
        for (int w = 0; w < kBurst; ++w) {
          reqs.push_back(world.isend(&buf[static_cast<std::size_t>(w)], 1,
                                     Datatype::byte(), peer, 5));
        }
        Request::wait_all(reqs);
        world.recv(&ack, 1, Datatype::byte(), peer, 6);
      } else {
        std::vector<Request> reqs;
        reqs.reserve(kBurst);
        for (int w = 0; w < kBurst; ++w) {
          reqs.push_back(world.irecv(&buf[static_cast<std::size_t>(w)], 1,
                                     Datatype::byte(), peer, 5));
        }
        Request::wait_all(reqs);
        world.send(&ack, 1, Datatype::byte(), peer, 6);
      }
    }
    if (me == 1) {
      ns_per_msg = sw.elapsed_ns() / static_cast<double>(kBurst * kRounds);
    }
    world.barrier();
    // The stale receives never complete; finalize() reclaims them with the
    // communicator (pml subsystem teardown).
    finalize();
  });
  return ns_per_msg;
}

struct SweepRow {
  int depth;
  double directed_ns;
  double wildcard_ns;  ///< every 16th stale receive is ANY_SOURCE
};

std::vector<SweepRow> run_sweep() {
  std::vector<SweepRow> rows;
  for (int depth : {1, 16, 256, 4096}) {
    SweepRow r;
    r.depth = depth;
    r.directed_ns = sweep_case(depth, /*wildcard_every=*/0);
    r.wildcard_ns = sweep_case(depth, /*wildcard_every=*/16);
    rows.push_back(r);
  }
  return rows;
}

void print_sweep(const std::vector<SweepRow>& rows) {
  bench::print_header(
      "Posted-depth x wildcard-fraction sweep (2 ranks, zero cost model)",
      "per-message one-way cost at the receiver; 'wildcard 1/16' = every "
      "16th stale receive is ANY_SOURCE.");
  base::Table t({"posted depth", "directed (ns/msg)", "wildcard 1/16 (ns/msg)",
                 "vs depth-1"});
  const double d1 = rows.empty() ? 1.0 : rows.front().directed_ns;
  for (const SweepRow& r : rows) {
    t.add_row({std::to_string(r.depth), base::Table::fmt(r.directed_ns, 0),
               base::Table::fmt(r.wildcard_ns, 0),
               base::Table::fmt(r.directed_ns / d1, 2)});
  }
  t.print(std::cout);
}

// --- google-benchmark micros ------------------------------------------------

void BM_LocalCidArrayLookup(benchmark::State& state) {
  // The fast path: constant-time index into the communicator array.
  std::vector<int> comm_table(1 << 16, 0);
  for (std::size_t i = 0; i < comm_table.size(); ++i) {
    comm_table[i] = static_cast<int>(i);
  }
  std::uint16_t cid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm_table[cid]);
    ++cid;
  }
}
BENCHMARK(BM_LocalCidArrayLookup);

void BM_ExCidHashLookup(benchmark::State& state) {
  // The extended path: hash the 128-bit exCID. `range(0)` communicators.
  std::unordered_map<ExCid, int, ExCidHash> table;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 1; i <= n; ++i) {
    table.emplace(ExCid{i, 0}, static_cast<int>(i));
  }
  std::uint64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(ExCid{key, 0}));
    key = key % n + 1;
  }
}
BENCHMARK(BM_ExCidHashLookup)->Arg(8)->Arg(64)->Arg(1024);

void BM_SlotAllocatorLowestFree(benchmark::State& state) {
  // Consensus building block under `range(0)` fragmentation holes.
  base::SlotAllocator alloc(1 << 16);
  const auto used = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < used; ++i) {
    alloc.claim(i);
  }
  for (std::uint32_t i = 0; i < used; i += 7) {
    alloc.release(i);  // punch holes
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.lowest_free(used / 2));
  }
}
BENCHMARK(BM_SlotAllocatorLowestFree)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ExCidDerive(benchmark::State& state) {
  ExCidSpace space = ExCidSpace::fresh(1);
  for (auto _ : state) {
    auto child = space.derive();
    if (!child) {
      space = ExCidSpace::fresh(space.id().hi + 1);
      child = space.derive();
    }
    benchmark::DoNotOptimize(child->id());
  }
}
BENCHMARK(BM_ExCidDerive);

void BM_ExCidDeriveVsFreshChain(benchmark::State& state) {
  // Walking a derivation chain to exhaustion, then refreshing — the cost
  // profile of repeated MPI_Comm_dup under the amortized design.
  ExCidSpace cursor = ExCidSpace::fresh(1);
  std::uint64_t next_pgcid = 2;
  for (auto _ : state) {
    auto child = cursor.derive();
    if (!child) {
      cursor = ExCidSpace::fresh(next_pgcid++);
      child = cursor.derive();
    }
    cursor = *child;
    benchmark::DoNotOptimize(cursor.id());
  }
}
BENCHMARK(BM_ExCidDeriveVsFreshChain);

}  // namespace
}  // namespace sessmpi

int main(int argc, char** argv) {
  using namespace sessmpi;
  const bool smoke = bench::flag_present(argc, argv, "--smoke");
  std::cout << "bench_matching: matching-engine cost on the message path\n";

  const auto rows = run_sweep();
  print_sweep(rows);

  if (smoke) {
    // Regression fence: per-source bins keep match cost flat in posted
    // depth, so depth-256 must stay within 3x of depth-1 (a linear scan
    // sits far above this on any host).
    const double ratio = rows[2].directed_ns / rows[0].directed_ns;
    const bool pass = ratio <= 3.0;
    bench::print_record("bench_matching", {{"depth_ratio", {ratio}}});
    std::cout << "MATCH_SMOKE " << (pass ? "PASS" : "FAIL")
              << " (depth-256 / depth-1 = " << base::Table::fmt(ratio, 2)
              << ", budget 3.00)\n";
    return pass ? 0 : 1;
  }

  // Full mode: the data-structure micros ride along.
  bench::print_record("bench_matching");
  int bench_argc = 1;
  benchmark::Initialize(&bench_argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
