// Scheduler-parity matrix: every scenario here runs twice — once with one
// OS thread per rank (sim.scheduler=threads) and once on the cooperative
// fiber pool (sim.scheduler=fibers) — and must produce an identical digest:
// the same per-rank results bit for bit, and the same deltas on the
// deterministic counters (modex fetches, shrinks, partner rebuilds, ...).
// SCHED_CASE (modeled on SOAK_CASE) expands each scenario into its own
// ctest case.
//
// This is the acceptance property of the fiber scheduler (DESIGN.md §15):
// moving a rank from a preemptive OS thread to a cooperatively yielding
// fiber must be invisible to the MPI semantics, including the recovery
// paths (revoke/shrink) and the checkpoint/restore pipeline.
//
// The seed-swept tail tests pin run-to-run determinism *within* fiber
// mode: the same chaos seed must produce the same kills, the same commits,
// and bitwise-identical restores on consecutive runs — with every byte
// checked against the analytic golden state (state_of is a pure function
// of (owner, iteration), so the golden run exists in closed form).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../core/harness.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/ckpt/ckpt.hpp"
#include "sessmpi/ft/ft.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/sim/chaos.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace sessmpi {
namespace {

/// Scenario outcome: per-rank results plus watched-counter deltas, all
/// folded to integers so gtest's map printer shows an exact diff on
/// mismatch.
using Digest = std::map<std::string, std::uint64_t>;

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// Snapshot `names` before the scenario body, fold the deltas in after.
class CounterWatch {
 public:
  explicit CounterWatch(std::vector<std::string> names)
      : names_(std::move(names)) {
    for (const auto& n : names_) {
      before_[n] = base::counters().value(n);
    }
  }
  void fold_into(Digest& d) const {
    for (const auto& n : names_) {
      d["counter." + n] = base::counters().value(n) - before_.at(n);
    }
  }

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint64_t> before_;
};

// --- Scenario: tagged ring exchange over the sessions path ---------------

Digest ring_scenario() {
  CounterWatch watch({"pmix.modex_lazy_fetches", "pmix.modex_cache_hits",
                      "pml.seq_anomalies"});
  Digest d;
  std::mutex mu;
  testing::mpi_run(2, 4, [&](sim::Process& p) {
    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "parity_ring");
    const int n = c.size();
    const int me = c.rank();
    std::uint64_t acc = 0;
    for (int iter = 1; iter <= 8; ++iter) {
      std::int64_t in = -1;
      const std::int64_t out = static_cast<std::int64_t>(p.rank()) * 1000 + iter;
      c.sendrecv(&out, 1, Datatype::int64(), (me + 1) % n, iter, &in, 1,
                 Datatype::int64(), (me + n - 1) % n, iter);
      acc = acc * 31 + static_cast<std::uint64_t>(in);
    }
    c.barrier();
    c.free();
    s.finalize();
    std::lock_guard lk(mu);
    d["rank." + std::to_string(p.rank())] = acc;
  });
  watch.fold_into(d);
  return d;
}

// --- Scenario: allreduce (sum + max) over the sessions path --------------

Digest allreduce_scenario() {
  CounterWatch watch({"pmix.modex_lazy_fetches", "coll.wire_sends",
                      "coll.payload_copies"});
  Digest d;
  std::mutex mu;
  testing::mpi_run(2, 4, [&](sim::Process& p) {
    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "parity_allreduce");
    std::int64_t me = static_cast<std::int64_t>(p.rank()) + 1;
    std::int64_t sum = 0, mx = 0;
    c.allreduce(&me, &sum, 1, Datatype::int64(), Op::sum());
    c.allreduce(&me, &mx, 1, Datatype::int64(), Op::max());
    c.free();
    s.finalize();
    std::lock_guard lk(mu);
    d["rank." + std::to_string(p.rank()) + ".sum"] =
        static_cast<std::uint64_t>(sum);
    d["rank." + std::to_string(p.rank()) + ".max"] =
        static_cast<std::uint64_t>(mx);
  });
  watch.fold_into(d);
  return d;
}

// --- Scenario: cooperative kill -> revoke -> shrink ----------------------

Digest shrink_scenario() {
  CounterWatch watch({"ft.shrinks", "pmix.modex_lazy_fetches"});
  constexpr int kVictim = 2;
  Digest d;
  std::mutex mu;
  testing::mpi_run(1, 6, [&](sim::Process& p) {
    Session s = Session::init(Info::null(), Errhandler::errors_return());
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "parity_shrink", Info::null(),
        Errhandler::errors_return());
    const int g = static_cast<int>(p.rank());
    for (int iter = 1; iter <= 6; ++iter) {
      if (iter == 3 && g == kVictim) {
        p.fail();
        return;  // cooperative death between iterations
      }
      try {
        const Status st = c.ibarrier().wait();
        if (st.error != ErrClass::success) {
          throw Error(st.error, "parity shrink: barrier poisoned");
        }
      } catch (const Error&) {
        if (!c.is_revoked()) {
          c.revoke();
        }
        Communicator shrunk = c.shrink();
        c.free();
        c = shrunk;
        // Survivors may see the death one iteration apart; agree on a
        // common resume iteration so every barrier that follows matches.
        iter = static_cast<int>(~c.agree(~static_cast<std::uint64_t>(iter)));
      }
    }
    std::int64_t me = g, sum = 0;
    c.allreduce(&me, &sum, 1, Datatype::int64(), Op::sum());
    std::lock_guard lk(mu);
    d["rank." + std::to_string(g) + ".size"] =
        static_cast<std::uint64_t>(c.size());
    d["rank." + std::to_string(g) + ".sum"] = static_cast<std::uint64_t>(sum);
    c.free();
    s.finalize();
  });
  watch.fold_into(d);
  return d;
}

// --- Scenario: checkpoint -> scheduled node kill -> shrink + restore -----

constexpr std::size_t kBytes = 64;
constexpr int kSaveEvery = 3;

/// Pure function of (owner, iteration): the analytic golden state.
std::vector<std::uint8_t> state_of(int owner, std::uint64_t iter) {
  std::vector<std::uint8_t> v(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    v[i] = static_cast<std::uint8_t>(131u * static_cast<unsigned>(owner) +
                                     17u * static_cast<unsigned>(iter) + i);
  }
  return v;
}

struct CkptParams {
  std::uint64_t seed = 1;
  double drop = 0.0;
  int kill_every = 0;
  int max_kills = 0;
  std::vector<std::pair<int, int>> kill_node_at;
};

/// Soak-style workload (ring + barrier + periodic checkpoint, ULFM recovery
/// via revoke/shrink/restore) over 2 nodes x 3 ranks. The digest carries
/// every commit, every restore (epoch + bytes, own and adopted), and the
/// survivors' final iteration counts — all of which must be independent of
/// the scheduler and, per seed, of the run.
Digest ckpt_restore_scenario(const CkptParams& prm) {
  CounterWatch watch({"ckpt.partner_rebuilds", "ft.shrinks"});
  constexpr int kNodes = 2, kPpn = 3;
  constexpr std::uint64_t kIters = 9;

  sim::Cluster::Options opts = testing::zero_opts(kNodes, kPpn);
  opts.reliability.tick_ns = 100'000;
  opts.reliability.rto_base_ns = 1'000'000;
  opts.reliability.rto_cap_ns = 8'000'000;
  opts.reliability.max_retries = 40;
  sim::ChaosPolicy pol;
  pol.seed = prm.seed;
  pol.drop_fraction = prm.drop;
  pol.kill_every_steps = prm.kill_every;
  pol.max_kills = prm.max_kills;
  pol.min_survivors = 2;
  pol.kill_node_at = prm.kill_node_at;

  Digest d;
  std::mutex mu;
  sim::Cluster cluster{opts};
  sim::ChaosMonkey monkey{cluster, pol};
  cluster.run([&](sim::Process& p) {
    const int g = static_cast<int>(p.rank());
    Session sess = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        sess.group_from_pset("mpi://world"), "parity_ckpt", Info::null(),
        Errhandler::errors_return());

    std::vector<std::uint8_t> data = state_of(g, 0);
    std::uint64_t iter = 0;
    ckpt::Config cfg;
    cfg.partner_offset = kPpn;  // partner on the other node
    cfg.spill_to_fs = true;
    ckpt::Checkpointer ck("parity_ckpt", cfg);
    ck.register_dataset("data", data.data(), data.size());
    ck.register_dataset("iter", &iter, sizeof iter);

    int step = 0;
    int recoveries = 0;
    while (iter < kIters) {
      if (!monkey.step(p, ++step)) {
        return;  // scheduled death
      }
      try {
        const std::uint64_t next = iter + 1;
        const int n = comm.size();
        const int me = comm.rank();
        if (n > 1) {
          std::int64_t in = -1;
          const std::int64_t out =
              g * 1'000'000 + static_cast<std::int64_t>(next);
          const int tag = static_cast<int>(next % 1000);
          const Status rst =
              comm.sendrecv(&out, 1, Datatype::int64(), (me + 1) % n, tag,
                            &in, 1, Datatype::int64(), (me + n - 1) % n, tag);
          if (rst.error != ErrClass::success) {
            throw Error(rst.error, "parity ckpt: ring poisoned");
          }
          EXPECT_EQ(in % 1'000'000, static_cast<std::int64_t>(next));
        }
        const Status bst = comm.ibarrier().wait();
        if (bst.error != ErrClass::success) {
          throw Error(bst.error, "parity ckpt: barrier poisoned");
        }
        const std::vector<std::uint8_t> advanced = state_of(g, next);
        std::copy(advanced.begin(), advanced.end(), data.begin());
        iter = next;
        if (iter % kSaveEvery == 0) {
          const std::uint64_t e = ck.save(comm);
          // Commit content is the analytic golden state — check it here
          // and fold the hash into the digest.
          EXPECT_EQ(data, state_of(g, iter));
          std::lock_guard lk(mu);
          d["saved." + std::to_string(g) + "." + std::to_string(e)] =
              fnv1a(data.data(), data.size());
        }
      } catch (const Error&) {
        if (p.failed()) {
          return;
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
          if (comm.size() > 1 &&
              ck.config().partner_offset % comm.size() == 0) {
            ck.set_partner_offset(1);
          }
          const ckpt::RestoreResult res = ck.restore(comm);
          // Bitwise rewind against the analytic golden state.
          EXPECT_EQ(iter, res.epoch * kSaveEvery);
          EXPECT_EQ(data, state_of(g, iter));
          std::lock_guard lk(mu);
          d["restored." + std::to_string(g) + ".epoch"] = res.epoch;
          d["restored." + std::to_string(g) + ".own"] =
              fnv1a(data.data(), data.size());
          for (const auto& shard : res.adopted) {
            if (shard.dataset != "data") {
              continue;
            }
            const auto want = state_of(static_cast<int>(shard.owner),
                                       res.epoch * kSaveEvery);
            EXPECT_EQ(shard.bytes.size(), want.size());
            EXPECT_EQ(
                std::memcmp(shard.bytes.data(), want.data(), want.size()), 0)
                << "adopted shard of rank " << shard.owner;
            d["adopted." + std::to_string(g) + "." +
              std::to_string(shard.owner)] =
                fnv1a(shard.bytes.data(), shard.bytes.size());
          }
        } catch (const Error&) {
          if (p.failed()) {
            return;
          }
        }
      }
    }
    {
      std::lock_guard lk(mu);
      d["final." + std::to_string(g)] = iter;
    }
    comm.free();
    sess.finalize();
  });
  watch.fold_into(d);
  return d;
}

Digest ckpt_node_kill_scenario() {
  CkptParams prm;
  prm.seed = 2026;
  prm.kill_node_at = {{5, 1}};  // ranks 3..5, between epochs 1 and 2
  return ckpt_restore_scenario(prm);
}

/// One scenario = one ctest case: run under both schedulers, demand an
/// identical digest. The cvar is restored to the build default (threads)
/// so cases compose in any order.
#define SCHED_CASE(name, scenario_expr)                        \
  TEST(SchedParity, name) {                                    \
    sim::register_scheduler_cvar();                            \
    ASSERT_TRUE(obs::cvar_write("sim.scheduler", "threads"));  \
    const Digest under_threads = scenario_expr;                \
    ASSERT_TRUE(obs::cvar_write("sim.scheduler", "fibers"));   \
    const Digest under_fibers = scenario_expr;                 \
    ASSERT_TRUE(obs::cvar_write("sim.scheduler", "threads"));  \
    EXPECT_EQ(under_threads, under_fibers);                    \
  }

SCHED_CASE(Ring, ring_scenario())
SCHED_CASE(Allreduce, allreduce_scenario())
SCHED_CASE(RevokeShrink, shrink_scenario())
SCHED_CASE(CheckpointRestoreNodeKill, ckpt_node_kill_scenario())

#undef SCHED_CASE

// --- Fiber-mode determinism across chaos seeds ---------------------------

TEST(SchedParity, FiberSoakDeterministicAcrossFiveChaosSeeds) {
  // For each of five chaos seeds: the same seeded soak (10% drop + one
  // scheduled kill) run twice under fibers must produce identical digests —
  // same kills, same commits, same restore epochs, bitwise-identical
  // restored bytes (each run also checks every byte against the analytic
  // golden state in-body). Fiber switch counts are free to differ; the
  // digest deliberately contains none.
  sim::register_scheduler_cvar();
  ASSERT_TRUE(obs::cvar_write("sim.scheduler", "fibers"));
  for (const std::uint64_t seed : {41u, 42u, 43u, 44u, 45u}) {
    CkptParams prm;
    prm.seed = seed;
    prm.drop = 0.10;
    prm.kill_every = 5;
    prm.max_kills = 1;
    const Digest first = ckpt_restore_scenario(prm);
    const Digest second = ckpt_restore_scenario(prm);
    EXPECT_EQ(first, second) << "seed " << seed;
    EXPECT_FALSE(first.empty());
  }
  ASSERT_TRUE(obs::cvar_write("sim.scheduler", "threads"));
}

// --- Fiber-carried rank TLS ------------------------------------------------

// A rank that yields inside a collective's flow scope must not lend its
// flow id to the next fiber on the same worker. Traced hierarchical
// allreduces on 2 nodes: only the two node leaders send wire messages, so
// every message a leader receives must carry the trace context of the
// other leader's own collective — never one opened by a non-leader rank.
// ppn >= hardware threads guarantees several ranks share a fiber worker.
TEST(FiberTls, FlowContextStaysWithItsRank) {
  const int ppn = std::max(4, static_cast<int>(std::thread::hardware_concurrency()));
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  sim::register_scheduler_cvar();
  ASSERT_TRUE(obs::cvar_write("sim.scheduler", "fibers"));
  tracer.set_enabled(true);
  testing::world_run(2, ppn, [](sim::Process&) {
    Communicator w = comm_world();
    for (int i = 0; i < 10; ++i) {
      std::int64_t one = 1;
      std::int64_t sum = 0;
      w.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
      EXPECT_EQ(sum, w.size());
    }
  });
  tracer.set_enabled(false);
  ASSERT_TRUE(obs::cvar_write("sim.scheduler", "threads"));

  const std::vector<obs::Event> events = tracer.collect();
  tracer.clear();
  std::map<std::uint64_t, std::int32_t> coll_owner;  // flow id -> rank
  for (const obs::Event& ev : events) {
    if (ev.phase == obs::Phase::flow_start &&
        std::string(ev.name) == "coll.allreduce") {
      coll_owner[ev.id] = ev.track;
    }
  }
  ASSERT_EQ(coll_owner.size(), static_cast<std::size_t>(2 * ppn * 10));
  int leader_msgs = 0;
  for (const obs::Event& ev : events) {
    if (ev.phase != obs::Phase::flow_end || std::string(ev.name) != "pml.msg") {
      continue;
    }
    const auto it = coll_owner.find(ev.id);
    if (it == coll_owner.end()) {
      continue;  // not a collective's message
    }
    ++leader_msgs;
    const std::int32_t other_leader = ev.track == 0 ? ppn : 0;
    EXPECT_EQ(it->second, other_leader)
        << "rank " << ev.track << " received a message stamped with rank "
        << it->second << "'s collective";
  }
  EXPECT_GE(leader_msgs, 2 * 10);
}

}  // namespace
}  // namespace sessmpi
