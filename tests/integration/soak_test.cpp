// Chaos soak matrix: a parameterized fault-tolerance workload — ring
// exchange + nonblocking barrier + periodic coordinated checkpoints, with
// ULFM revoke/shrink + ckpt restore as the recovery path — swept across
// (drop fraction x kill schedule x rank count) with seeded determinism.
// Each SOAK_CASE expands to its own TEST so ctest registers every matrix
// point as an individual case (label: soak).
//
// The final test is the acceptance scenario: 8 ranks, 10% packet drop, a
// scheduled whole-node kill mid-iteration; survivors shrink, restore from
// the last committed epoch, and every restored byte — own datasets and
// adopted shards of the dead — is compared against a no-fault golden run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "../core/harness.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/ckpt/ckpt.hpp"
#include "sessmpi/ckpt/planner.hpp"
#include "sessmpi/ft/ft.hpp"
#include "sessmpi/obs/postmortem.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/trace_json.hpp"
#include "sessmpi/sim/chaos.hpp"

namespace sessmpi {
namespace {

constexpr std::size_t kBytes = 128;   ///< per-rank dataset size
constexpr int kSaveEvery = 3;         ///< checkpoint cadence (iterations)

/// Deterministic dataset contents: a pure function of (owner, iteration),
/// so a restored state is bitwise-checkable without reference to the run
/// that produced it — and identical between a faulty and a golden run.
std::vector<std::uint8_t> state_of(int owner, std::uint64_t iter) {
  std::vector<std::uint8_t> v(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    v[i] = static_cast<std::uint8_t>(131u * static_cast<unsigned>(owner) +
                                     17u * static_cast<unsigned>(iter) + i);
  }
  return v;
}

struct SoakParams {
  int nodes = 1;
  int ppn = 4;
  std::uint64_t iters = 9;  ///< iterations each survivor must complete
  std::uint64_t seed = 1;
  double drop = 0.0;
  int kill_every = 0;  ///< cooperative periodic rank kills (0 = off)
  int max_kills = 0;
  std::vector<std::pair<int, int>> kill_node_at;  ///< (step, node)
  /// In-memory redundancy under test (partner by default; the erasure
  /// schemes group ranks into (set_data + set_parity) redundancy sets).
  ckpt::Scheme scheme = ckpt::Scheme::partner;
  int set_data = 4;
  int set_parity = 2;
};

/// What the workload observed, for cross-run comparison.
struct SoakRecord {
  std::mutex mu;
  /// Dataset bytes at each committed save: (owner global rank, epoch).
  std::map<std::pair<int, std::uint64_t>, std::vector<std::uint8_t>> saved;
  struct Restore {
    int global = -1;
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> own;   ///< own dataset after the restore
    std::vector<ckpt::Shard> adopted;
    int from_fs = 0;
    int from_parity = 0;
  };
  std::vector<Restore> restores;
  std::map<int, std::uint64_t> final_iter;  ///< survivors only
};

sim::Cluster::Options soak_opts(const SoakParams& prm) {
  sim::Cluster::Options opts = testing::zero_opts(prm.nodes, prm.ppn);
  // Lossy-run timers (cf. the LossyLinks integration test): RTOs scaled to
  // the zero-cost wire, retry cap high enough that seeded drops cannot
  // spuriously escalate a live rank.
  opts.reliability.tick_ns = 100'000;
  opts.reliability.rto_base_ns = 1'000'000;
  opts.reliability.rto_cap_ns = 8'000'000;
  opts.reliability.max_retries = 40;
  return opts;
}

sim::ChaosPolicy soak_policy(const SoakParams& prm) {
  sim::ChaosPolicy pol;
  pol.seed = prm.seed;
  pol.drop_fraction = prm.drop;
  pol.kill_every_steps = prm.kill_every;
  pol.max_kills = prm.max_kills;
  pol.min_survivors = 2;
  pol.kill_node_at = prm.kill_node_at;
  return pol;
}

/// The soak workload. Every iteration: chaos step boundary, tagged ring
/// sendrecv, nonblocking barrier, state advance, periodic checkpoint. Any
/// Error drops into the recovery path: revoke, shrink, restore, resume from
/// the restored iteration. Non-cooperative deaths (node-mates of a killed
/// rank, unwound out of a blocked call by the PML's self-failure check)
/// leave via the p.failed() exits.
void soak_body(sim::Cluster& cluster, sim::ChaosMonkey& monkey,
               const SoakParams& prm, SoakRecord& rec) {
  cluster.run([&](sim::Process& p) {
    const int g = static_cast<int>(p.rank());
    Session sess = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        sess.group_from_pset("mpi://world"), "soak", Info::null(),
        Errhandler::errors_return());

    std::vector<std::uint8_t> data = state_of(g, 0);
    std::uint64_t iter = 0;
    ckpt::Config cfg;
    // Partner on another node when there is one (survives node failure);
    // the filesystem spill is the copy of last resort either way.
    cfg.partner_offset = prm.nodes > 1 ? prm.ppn : 1;
    cfg.scheme = prm.scheme;
    cfg.set_data = prm.set_data;
    cfg.set_parity = prm.set_parity;
    cfg.spill_to_fs = true;
    ckpt::Checkpointer ck("soak", cfg);
    ck.register_dataset("data", data.data(), data.size());
    ck.register_dataset("iter", &iter, sizeof iter);

    int step = 0;
    int recoveries = 0;
    while (iter < prm.iters) {
      if (!monkey.step(p, ++step)) {
        return;  // scheduled (cooperative) death
      }
      try {
        const std::uint64_t next = iter + 1;
        const int n = comm.size();
        const int me = comm.rank();
        if (n > 1) {
          // Ring exchange tagged by iteration: a cross-iteration match
          // (lost/duplicated/reordered message) shows up as a wrong value.
          std::int64_t in = -1;
          const std::int64_t out =
              g * 1'000'000 + static_cast<std::int64_t>(next);
          const int tag = static_cast<int>(next % 1000);
          const Status rst =
              comm.sendrecv(&out, 1, Datatype::int64(), (me + 1) % n, tag,
                            &in, 1, Datatype::int64(), (me + n - 1) % n, tag);
          if (rst.error != ErrClass::success) {
            throw Error(rst.error, "soak: ring exchange poisoned");
          }
          EXPECT_EQ(in % 1'000'000, static_cast<std::int64_t>(next));
        }
        const Status bst = comm.ibarrier().wait();
        if (bst.error != ErrClass::success) {
          throw Error(bst.error, "soak: barrier poisoned");
        }
        // In place: `data = ...` would move the allocation out from under
        // the pointer registered with the Checkpointer.
        const std::vector<std::uint8_t> advanced = state_of(g, next);
        std::copy(advanced.begin(), advanced.end(), data.begin());
        iter = next;
        if (iter % kSaveEvery == 0) {
          const std::uint64_t e = ck.save(comm);
          std::lock_guard lk(rec.mu);
          rec.saved[{g, e}] = data;
        }
      } catch (const Error&) {
        if (p.failed()) {
          return;  // this rank was killed mid-operation (node kill)
        }
        if (++recoveries > 20) {
          ADD_FAILURE() << "rank " << g << ": recovery did not converge";
          return;
        }
        try {
          if (!comm.is_revoked()) {
            comm.revoke();
          }
          Communicator shrunk = comm.shrink();
          comm.free();
          comm = shrunk;
          // A shrink can leave the partner offset a multiple of the new
          // size (self-partnering, which save() rejects): fall back to the
          // nearest-neighbour partner for the post-recovery epochs.
          if (comm.size() > 1 &&
              ck.config().partner_offset % comm.size() == 0) {
            ck.set_partner_offset(1);
          }
          const ckpt::RestoreResult res = ck.restore(comm);
          // Feed the interval planner: every survived failure is an MTBF
          // observation (save costs flow in from inside ck.save()).
          ckpt::planner().note_failure(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count());
          EXPECT_EQ(iter, res.epoch * kSaveEvery);
          EXPECT_EQ(data, state_of(g, iter));  // bitwise rewind
          std::lock_guard lk(rec.mu);
          rec.restores.push_back(
              {g, res.epoch, data, res.adopted, res.from_fs, res.from_parity});
        } catch (const Error&) {
          if (p.failed()) {
            return;
          }
          // Another failure landed mid-recovery (or the shrink raced a
          // concurrent vote): loop around and recover again.
        }
      }
    }
    {
      std::lock_guard lk(rec.mu);
      rec.final_iter[g] = iter;
    }
    comm.free();
    sess.finalize();
  });
}

/// Invariants every matrix point must satisfy, chaos or not: survivors
/// finish all iterations, every restore rewound bitwise-correctly (checked
/// in-body), and the survivor set is exactly the non-failed ranks.
void run_soak(const SoakParams& prm) {
  sim::Cluster cluster{soak_opts(prm)};
  sim::ChaosMonkey monkey{cluster, soak_policy(prm)};
  SoakRecord rec;
  soak_body(cluster, monkey, prm, rec);

  const int ranks = prm.nodes * prm.ppn;
  int survivors = 0;
  for (int r = 0; r < ranks; ++r) {
    if (cluster.fabric().is_failed(r)) {
      EXPECT_EQ(rec.final_iter.count(r), 0u) << "dead rank " << r << " finished";
      continue;
    }
    ++survivors;
    ASSERT_EQ(rec.final_iter.count(r), 1u) << "rank " << r << " never finished";
    EXPECT_EQ(rec.final_iter[r], prm.iters);
  }
  EXPECT_GE(survivors, 2);
  // kills() counts kill *events* (a node kill is one event, ppn deaths);
  // the schedule's victim list is the per-rank ground truth.
  EXPECT_EQ(static_cast<std::size_t>(ranks - survivors),
            monkey.schedule().victims().size());
  if (!monkey.schedule().victims().empty()) {
    EXPECT_FALSE(rec.restores.empty()) << "kills happened but nobody restored";
  }
}

/// One matrix point = one ctest case (gtest_discover_tests registers each
/// TEST individually; the binary carries the `soak` label).
#define SOAK_CASE(name, nodes_, ppn_, iters_, seed_, drop_, kill_every_, \
                  max_kills_, ...)                                       \
  TEST(Soak, name) {                                                     \
    SoakParams prm;                                                      \
    prm.nodes = (nodes_);                                                \
    prm.ppn = (ppn_);                                                    \
    prm.iters = (iters_);                                                \
    prm.seed = (seed_);                                                  \
    prm.drop = (drop_);                                                  \
    prm.kill_every = (kill_every_);                                      \
    prm.max_kills = (max_kills_);                                        \
    prm.kill_node_at = {__VA_ARGS__};                                    \
    run_soak(prm);                                                       \
  }

//        name                  nodes ppn iters seed drop  every kills  node kills
SOAK_CASE(Clean4Ranks,             1,  4,   9,   11, 0.00,  0,    0)
SOAK_CASE(Drop10Clean4Ranks,       1,  4,   9,   12, 0.10,  0,    0)
SOAK_CASE(Kill1of4,                1,  4,   9,   13, 0.00,  5,    1)
SOAK_CASE(Drop10Kill1of8,          2,  4,  12,   14, 0.10,  6,    1)
SOAK_CASE(Drop25Kill2of8,          2,  4,  12,   15, 0.25,  5,    2)
SOAK_CASE(NodeKill8Ranks,          2,  4,   9,   16, 0.00,  0,    0, {5, 1})
SOAK_CASE(Drop10NodeKill8Ranks,    2,  4,   9,   17, 0.10,  0,    0, {5, 1})

#undef SOAK_CASE

TEST(Soak, TracedLossyRunNestsRetransmitsUnderOwningSends) {
  // Observability acceptance under chaos: run the soak workload with 25%
  // seeded packet drop while tracing, merge the per-rank traces, and check
  // that every fabric.retransmit span in the merged timeline nests (same
  // async id, same rank track) under the fabric.inflight span of the send
  // it is retrying — the property that makes a lossy run's timeline read
  // causally in Perfetto.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_enabled(true);

  SoakParams prm;
  prm.nodes = 1;
  prm.ppn = 4;
  prm.iters = 12;
  prm.seed = 77;
  prm.drop = 0.25;
  {
    sim::Cluster cluster{soak_opts(prm)};
    sim::ChaosMonkey monkey{cluster, soak_policy(prm)};
    SoakRecord rec;
    soak_body(cluster, monkey, prm, rec);
    EXPECT_GT(cluster.fabric().chaos_dropped(), 0u);
    for (int g = 0; g < 4; ++g) {
      ASSERT_EQ(rec.final_iter.count(g), 1u);
      EXPECT_EQ(rec.final_iter.at(g), prm.iters);
    }
  }  // cluster destroyed: rank threads joined, pump stopped -> writers quiescent
  tracer.set_enabled(false);

  const auto events = tracer.collect();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "soak_trace").string();
  const auto paths = obs::write_rank_traces(dir, "soak", events);
  ASSERT_FALSE(paths.empty());
  const std::string merged_path = dir + "/merged.trace.json";
  {
    std::ofstream out(merged_path, std::ios::trunc);
    ASSERT_TRUE(out);
    ASSERT_GT(obs::merge_traces(paths, out), 0u);
  }

  const auto parsed = obs::parse_trace_file(merged_path);
  // Owning send window per (rank track, flow id): open/close timestamps.
  struct Inflight {
    double begin_ts = -1;
    double end_ts = -1;
  };
  std::map<std::pair<int, std::uint64_t>, Inflight> inflight;
  std::vector<obs::ParsedEvent> retransmits;
  for (const auto& ev : parsed) {
    if (ev.name == "fabric.inflight" && ev.has_id) {
      auto& f = inflight[{ev.pid, ev.id}];
      if (ev.ph == 'b') f.begin_ts = ev.ts_us;
      if (ev.ph == 'e') f.end_ts = ev.ts_us;
    } else if (ev.name == "fabric.retransmit" && ev.ph == 'b') {
      retransmits.push_back(ev);
    }
  }
  // 25% drop over 4 ranks x 12 iterations must retransmit at least once.
  ASSERT_FALSE(retransmits.empty())
      << "lossy soak produced no fabric.retransmit spans";

  int fully_nested = 0;
  for (const auto& rt : retransmits) {
    ASSERT_TRUE(rt.has_id);
    const auto it = inflight.find({rt.pid, rt.id});
    ASSERT_NE(it, inflight.end())
        << "retransmit id 0x" << std::hex << rt.id
        << " has no owning fabric.inflight span on pid " << std::dec << rt.pid;
    ASSERT_GE(it->second.begin_ts, 0.0);
    EXPECT_LE(it->second.begin_ts, rt.ts_us)
        << "retransmit fired before its owning send opened";
    // The close lands when the ACK finally erases the entry; retries whose
    // flow was still unacked at teardown legitimately have no close, but a
    // run that completed all iterations must have at least one acked retry.
    if (it->second.end_ts >= rt.ts_us) ++fully_nested;
  }
  EXPECT_GE(fully_nested, 1)
      << "no retransmit fully enclosed by its owning inflight span";
}

TEST(Soak, NodeKillDumpsPostmortemBundle) {
  // Flight-recorder acceptance: a node kill mid-run leaves a postmortem
  // bundle written by the FIRST failure trigger (proc_failed / revoke /
  // RTO escalation — whichever path won the race); the cascade that
  // follows is suppressed, and the survivors still recover and finish.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_enabled(true);
  obs::reset_postmortem_for_testing();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "soak_postmortem")
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(obs::cvar_write("obs.postmortem.dir", dir));
  const std::uint64_t dumps_before =
      base::counters().value("obs.postmortem.dumps");

  SoakParams prm;
  prm.nodes = 2;
  prm.ppn = 4;
  prm.iters = 9;
  prm.seed = 31;
  prm.kill_node_at = {{5, 1}};
  run_soak(prm);

  tracer.set_enabled(false);
  ASSERT_TRUE(obs::cvar_write("obs.postmortem.dir", ""));
  obs::reset_postmortem_for_testing();

  // Exactly one dump; the failure cascade (4 deaths + revoke storm) was
  // deduplicated into obs.postmortem.suppressed.
  EXPECT_EQ(base::counters().value("obs.postmortem.dumps"), dumps_before + 1);
  EXPECT_GT(base::counters().value("obs.postmortem.suppressed"), 0u);

  const std::string manifest = dir + "/postmortem.json";
  ASSERT_TRUE(std::filesystem::exists(manifest));
  std::string text;
  {
    std::ifstream is(manifest);
    std::stringstream slurp;
    slurp << is.rdbuf();
    text = slurp.str();
  }
  EXPECT_NE(text.find("\"postmortem\": {\"reason\": \""), std::string::npos);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  // Subsystem sections captured in-flight state: the fabric's flow windows
  // and at least one rank's request-table snapshot.
  EXPECT_NE(text.find("\"fabric.flows\""), std::string::npos);
  EXPECT_NE(text.find("\"core.rank"), std::string::npos);

  // The per-rank trace files in the bundle are regular parseable traces
  // holding the pre-failure activity (the rings were warm when frozen).
  bool saw_rank_trace = false;
  bool saw_activity = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "postmortem.json" ||
        name.find(".trace.json") == std::string::npos) {
      continue;
    }
    saw_rank_trace = true;
    for (const auto& ev : obs::parse_trace_file(entry.path().string())) {
      saw_activity = saw_activity || ev.name == "pml.send" ||
                     ev.name == "pml.match" || ev.name == "fabric.inflight";
    }
  }
  EXPECT_TRUE(saw_rank_trace);
  EXPECT_TRUE(saw_activity) << "bundle traces hold no pre-failure pml events";
  tracer.clear();
}

TEST(Soak, GoldenBitwiseRestoreAfterNodeKill) {
  // Acceptance scenario. Golden pass: same workload, no chaos.
  SoakParams golden_prm;
  golden_prm.nodes = 2;
  golden_prm.ppn = 4;
  golden_prm.iters = 9;
  SoakRecord golden;
  {
    sim::Cluster cluster{soak_opts(golden_prm)};
    sim::ChaosMonkey monkey{cluster, sim::ChaosPolicy{}};
    soak_body(cluster, monkey, golden_prm, golden);
  }
  for (int g = 0; g < 8; ++g) {
    ASSERT_EQ(golden.final_iter.at(g), 9u);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      ASSERT_EQ(golden.saved.count({g, e}), 1u);
    }
  }
  EXPECT_TRUE(golden.restores.empty());

  // Faulty pass: 10% seeded drop the whole run, node 1 (ranks 4..7) killed
  // at step 5 — mid-iteration for its node-mates, between epochs 1 and 2.
  SoakParams faulty_prm = golden_prm;
  faulty_prm.seed = 2026;
  faulty_prm.drop = 0.10;
  faulty_prm.kill_node_at = {{5, 1}};
  SoakRecord faulty;
  const std::uint64_t fs_rebuilds_before =
      base::counters().value("ckpt.partner_rebuilds") +
      base::counters().value("ckpt.fs_rebuilds");
  {
    sim::Cluster cluster{soak_opts(faulty_prm)};
    sim::ChaosMonkey monkey{cluster, soak_policy(faulty_prm)};
    soak_body(cluster, monkey, faulty_prm, faulty);
    EXPECT_EQ(monkey.schedule().victims().size(), 4u);
    for (int r = 4; r < 8; ++r) {
      EXPECT_TRUE(cluster.fabric().is_failed(r)) << "rank " << r;
    }
    EXPECT_GT(cluster.fabric().chaos_dropped(), 0u);
  }

  // Survivors (ranks 0..3) resumed and completed all 9 iterations.
  for (int g = 0; g < 4; ++g) {
    ASSERT_EQ(faulty.final_iter.count(g), 1u);
    EXPECT_EQ(faulty.final_iter.at(g), 9u);
  }
  for (int g = 4; g < 8; ++g) {
    EXPECT_EQ(faulty.final_iter.count(g), 0u);
  }

  // Every byte the faulty run ever committed matches the golden run's
  // committed bytes for the same (owner, epoch) — the checkpoint pipeline
  // is content-transparent even under 10% loss and a node failure.
  for (const auto& [key, bytes] : faulty.saved) {
    ASSERT_EQ(golden.saved.count(key), 1u)
        << "epoch " << key.second << " of rank " << key.first
        << " committed only in the faulty run";
    EXPECT_EQ(bytes, golden.saved.at(key))
        << "rank " << key.first << " epoch " << key.second;
  }

  // Restores resumed from the last committed epoch (1: the node died before
  // epoch 2), with own data bitwise-equal to the golden save and the dead
  // node's shards adopted bitwise-intact. With partner_offset == ppn the
  // dead node's partner copies live on the surviving node — this is exactly
  // the single-node-loss case SCR's PARTNER level is built for, so every
  // shard comes back the cheap way and the spill stays untouched.
  // (keyed by rank: a survivor may legitimately restore more than once if
  // another error lands mid-recovery, so compare each rank's last restore).
  std::map<int, const SoakRecord::Restore*> last_restore;
  for (const auto& r : faulty.restores) {
    last_restore[r.global] = &r;
  }
  ASSERT_EQ(last_restore.size(), 4u);
  int adopted_total = 0;
  int from_fs_total = 0;
  for (const auto& entry : last_restore) {
    const SoakRecord::Restore& r = *entry.second;
    EXPECT_EQ(r.epoch, 1u);
    EXPECT_EQ(r.own, golden.saved.at({r.global, r.epoch}));
    from_fs_total += r.from_fs;
    for (const auto& shard : r.adopted) {
      EXPECT_GE(shard.owner, 4);  // only node-1 ranks were lost
      if (shard.dataset != "data") {
        continue;
      }
      ++adopted_total;
      const auto& want = golden.saved.at({static_cast<int>(shard.owner), 1u});
      ASSERT_EQ(shard.bytes.size(), want.size());
      EXPECT_EQ(std::memcmp(shard.bytes.data(), want.data(), want.size()), 0)
          << "adopted shard of rank " << shard.owner;
    }
  }
  EXPECT_EQ(adopted_total, 4);  // every dead rank's dataset was adopted
  EXPECT_EQ(from_fs_total, 0);  // all via surviving cross-node partners
  EXPECT_GE(base::counters().value("ckpt.partner_rebuilds") +
                base::counters().value("ckpt.fs_rebuilds"),
            fs_rebuilds_before + 4);
}

TEST(Soak, GoldenBitwiseRsParityRestoreAfterTwoKillsInOneSet) {
  // Erasure acceptance scenario: RS(4, 2) redundancy sets over 8 ranks
  // spread 2-per-node (set 0 = ranks 0..5, tail set = ranks 6..7). Killing
  // node 1 takes ranks 2 and 3 — two simultaneous deaths *inside one set*,
  // exactly the code's tolerance — and both shards must decode bitwise
  // from parity alone: zero partner copies exist, and the spill must stay
  // untouched.
  SoakParams golden_prm;
  golden_prm.nodes = 4;
  golden_prm.ppn = 2;
  golden_prm.iters = 9;
  golden_prm.scheme = ckpt::Scheme::reed_solomon;
  SoakRecord golden;
  {
    sim::Cluster cluster{soak_opts(golden_prm)};
    sim::ChaosMonkey monkey{cluster, sim::ChaosPolicy{}};
    soak_body(cluster, monkey, golden_prm, golden);
  }
  for (int g = 0; g < 8; ++g) {
    ASSERT_EQ(golden.final_iter.at(g), 9u);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      ASSERT_EQ(golden.saved.count({g, e}), 1u);
    }
  }
  EXPECT_TRUE(golden.restores.empty());

  SoakParams faulty_prm = golden_prm;
  faulty_prm.seed = 2027;
  faulty_prm.kill_node_at = {{5, 1}};  // ranks 2 and 3, between epochs 1 and 2
  SoakRecord faulty;
  const std::uint64_t partner_before =
      base::counters().value("ckpt.partner_rebuilds");
  const std::uint64_t parity_before =
      base::counters().value("ckpt.parity_rebuilds");
  {
    sim::Cluster cluster{soak_opts(faulty_prm)};
    sim::ChaosMonkey monkey{cluster, soak_policy(faulty_prm)};
    soak_body(cluster, monkey, faulty_prm, faulty);
    EXPECT_EQ(monkey.schedule().victims().size(), 2u);
    EXPECT_TRUE(cluster.fabric().is_failed(2));
    EXPECT_TRUE(cluster.fabric().is_failed(3));
  }

  // The 6 survivors resumed and completed all iterations, and everything
  // they ever committed matches the golden run bitwise.
  for (const int g : {0, 1, 4, 5, 6, 7}) {
    ASSERT_EQ(faulty.final_iter.count(g), 1u);
    EXPECT_EQ(faulty.final_iter.at(g), 9u);
  }
  for (const auto& [key, bytes] : faulty.saved) {
    ASSERT_EQ(golden.saved.count(key), 1u);
    EXPECT_EQ(bytes, golden.saved.at(key))
        << "rank " << key.first << " epoch " << key.second;
  }

  std::map<int, const SoakRecord::Restore*> last_restore;
  for (const auto& r : faulty.restores) {
    last_restore[r.global] = &r;
  }
  ASSERT_EQ(last_restore.size(), 6u);
  int adopted_total = 0;
  int from_fs_total = 0;
  int from_parity_total = 0;
  for (const auto& entry : last_restore) {
    const SoakRecord::Restore& r = *entry.second;
    EXPECT_EQ(r.epoch, 1u);
    EXPECT_EQ(r.own, golden.saved.at({r.global, r.epoch}));
    from_fs_total += r.from_fs;
    from_parity_total += r.from_parity;
    for (const auto& shard : r.adopted) {
      EXPECT_TRUE(shard.owner == 2 || shard.owner == 3);
      if (shard.dataset != "data") {
        continue;
      }
      ++adopted_total;
      const auto& want = golden.saved.at({static_cast<int>(shard.owner), 1u});
      ASSERT_EQ(shard.bytes.size(), want.size());
      EXPECT_EQ(std::memcmp(shard.bytes.data(), want.data(), want.size()), 0)
          << "adopted shard of rank " << shard.owner;
    }
  }
  EXPECT_EQ(adopted_total, 2);
  EXPECT_EQ(from_parity_total, 2);  // both decoded from set parity
  EXPECT_EQ(from_fs_total, 0);      // the spill stayed untouched
  // The headline acceptance check: parity-only recovery, no partner copies.
  EXPECT_EQ(base::counters().value("ckpt.partner_rebuilds"), partner_before);
  EXPECT_GE(base::counters().value("ckpt.parity_rebuilds"),
            parity_before + 2);
}

TEST(Soak, PlannerAbFixedVsPlannedCadence) {
  // Failure-rate-driven interval planning, A/B'd against a fixed cadence.
  // Phase 1: one kill-matrix run under chaos feeds the planner — every
  // survived failure lands a note_failure() (soak_body) and every save
  // reports its measured cost from inside ck.save().
  ckpt::planner().reset();
  ASSERT_TRUE(obs::cvar_write("ckpt.interval.mode", "fixed"));
  ASSERT_TRUE(obs::cvar_write("ckpt.interval.fixed_ns", "0"));

  SoakParams prm;
  prm.nodes = 1;
  prm.ppn = 6;
  prm.iters = 12;
  prm.seed = 23;
  prm.kill_every = 4;
  prm.max_kills = 2;
  run_soak(prm);

  EXPECT_GE(ckpt::planner().failures(), 2u);
  ASSERT_GT(ckpt::planner().mtbf_ns(), 0);
  ASSERT_GT(ckpt::planner().save_cost_ns(), 0);
  const std::int64_t planned = ckpt::planner().planned_interval_ns();
  ASSERT_GT(planned, 0);
  EXPECT_EQ(planned,
            ckpt::IntervalPlanner::young(ckpt::planner().save_cost_ns(),
                                         ckpt::planner().mtbf_ns()));

  // Phase 2: drive should_save() over one simulated horizon in both modes.
  // With the fixed interval pinned at 4x the planned one, the planned
  // cadence must fire substantially more often — the measured failure rate,
  // not the static knob, is setting the checkpoint frequency.
  const std::int64_t horizon = planned * 64;
  const std::int64_t dt = planned / 8 > 0 ? planned / 8 : 1;
  ASSERT_TRUE(obs::cvar_write("ckpt.interval.fixed_ns",
                              std::to_string(planned * 4)));
  ckpt::Checkpointer fixed_ck("ab-fixed");
  int fixed_fires = 0;
  for (std::int64_t t = 0; t < horizon; t += dt) {
    fixed_fires += fixed_ck.should_save(t) ? 1 : 0;
  }
  ASSERT_TRUE(obs::cvar_write("ckpt.interval.mode", "planned"));
  ckpt::Checkpointer planned_ck("ab-planned");
  int planned_fires = 0;
  for (std::int64_t t = 0; t < horizon; t += dt) {
    planned_fires += planned_ck.should_save(t) ? 1 : 0;
  }
  EXPECT_GE(fixed_fires, 2);
  EXPECT_GT(planned_fires, 2 * fixed_fires);

  ASSERT_TRUE(obs::cvar_write("ckpt.interval.mode", "fixed"));
  ASSERT_TRUE(obs::cvar_write("ckpt.interval.fixed_ns", "0"));
  ckpt::planner().reset();
}

}  // namespace
}  // namespace sessmpi
