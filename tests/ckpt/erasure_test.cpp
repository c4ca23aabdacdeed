// Erasure-coded checkpointing and async-drain tests on the simulated
// cluster: parity-only restores after multi-failures inside and across
// redundancy sets (tail sets included), the save exchange's message count,
// beyond-tolerance failures with and without a durable spill, death
// mid-drain (falls back to the previous durable epoch), and the
// fault-injected retry/backoff path of the drain pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "../core/harness.hpp"
#include "detail/state.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/ckpt/ckpt.hpp"
#include "sessmpi/ft/ft.hpp"
#include "sessmpi/prte/simfs.hpp"

namespace sessmpi {
namespace {

using namespace std::chrono_literals;
using testing::world_run;

/// Deterministic per-rank payload: every byte depends on (rank, step, i).
std::vector<std::uint8_t> payload(int rank, int step, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(131u * static_cast<unsigned>(rank) +
                                     17u * static_cast<unsigned>(step) + 3u * i);
  }
  return v;
}

/// Everything the rank threads report out of one kill-and-restore run,
/// aggregated under a lock so the assertions can look at the whole picture.
struct Adopted {
  std::mutex mu;
  std::vector<ckpt::Shard> shards;
  int from_fs = 0;
  int from_parity = 0;

  void add(const ckpt::RestoreResult& res) {
    std::lock_guard lk(mu);
    for (const auto& s : res.adopted) {
      shards.push_back(s);
    }
    from_fs += res.from_fs;
    from_parity += res.from_parity;
  }

  void expect_owners(const std::set<int>& owners, std::size_t bytes,
                     int step) {
    std::lock_guard lk(mu);
    ASSERT_EQ(shards.size(), owners.size());
    std::set<int> seen;
    for (const auto& s : shards) {
      seen.insert(static_cast<int>(s.owner));
      EXPECT_EQ(s.dataset, "data");
      const auto want = payload(static_cast<int>(s.owner), step, bytes);
      ASSERT_EQ(s.bytes.size(), want.size());
      EXPECT_EQ(std::memcmp(s.bytes.data(), want.data(), want.size()), 0)
          << "owner " << s.owner;
    }
    EXPECT_EQ(seen, owners);
  }
};

/// Kill `dead` cooperatively after every rank saved, then shrink + restore
/// on the survivors and report into `got`. The per-rank body beyond that is
/// identical across the erasure matrix below.
void kill_and_restore(sim::Process& p, ckpt::Checkpointer& ck,
                      std::vector<std::uint8_t>& data, std::size_t bytes,
                      const std::set<int>& dead, std::atomic<int>* saved,
                      int nranks, Adopted* got,
                      std::uint64_t expect_epoch = 1) {
  const int me = static_cast<int>(p.rank());
  saved->fetch_add(1);
  if (dead.count(me) != 0) {
    while (saved->load() < nranks) {
      std::this_thread::sleep_for(1ms);
    }
    p.fail();
    return;
  }
  for (const int d : dead) {
    while (!p.cluster().fabric().is_failed(d)) {
      std::this_thread::sleep_for(1ms);
    }
  }
  comm_world().ack_failed();
  Communicator survivors = comm_world().shrink();
  const ckpt::RestoreResult res = ck.restore(survivors);
  EXPECT_EQ(res.epoch, expect_epoch);
  EXPECT_EQ(data, payload(me, static_cast<int>(expect_epoch), bytes));
  got->add(res);
  survivors.free();
}

TEST(CkptErasure, RsRestoresTwoKillsInOneSetFromParityAlone) {
  constexpr int kRanks = 6;  // exactly one RS(4, 2) set
  constexpr std::size_t kBytes = 96;
  const std::uint64_t partner_before =
      base::counters().value("ckpt.partner_rebuilds");
  const std::uint64_t parity_before =
      base::counters().value("ckpt.parity_rebuilds");
  std::atomic<int> saved{0};
  Adopted got;
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, kBytes);
    ckpt::Config cfg;
    cfg.scheme = ckpt::Scheme::reed_solomon;
    cfg.set_data = 4;
    cfg.set_parity = 2;
    ckpt::Checkpointer ck("rs2kill", cfg);
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);
    kill_and_restore(p, ck, data, kBytes, {1, 2}, &saved, kRanks, &got);
  });
  // Both dead shards decoded from set parity — bitwise, with zero partner
  // copies involved and nothing read back from the filesystem.
  got.expect_owners({1, 2}, kBytes, 1);
  EXPECT_EQ(got.from_parity, 2);
  EXPECT_EQ(got.from_fs, 0);
  EXPECT_EQ(base::counters().value("ckpt.partner_rebuilds"), partner_before);
  EXPECT_GE(base::counters().value("ckpt.parity_rebuilds"),
            parity_before + 2);
}

TEST(CkptErasure, SingleParityRestoresOneKillPerSetAcrossSets) {
  constexpr int kRanks = 8;  // two RS(3, 1) sets: {0..3} and {4..7}
  constexpr std::size_t kBytes = 64;
  std::atomic<int> saved{0};
  Adopted got;
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, kBytes);
    ckpt::Config cfg;
    cfg.scheme = ckpt::Scheme::reed_solomon;
    cfg.set_data = 3;
    cfg.set_parity = 1;
    ckpt::Checkpointer ck("rs1x2sets", cfg);
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);
    // One death per set: each set rebuilds independently from its parity.
    kill_and_restore(p, ck, data, kBytes, {1, 5}, &saved, kRanks, &got);
  });
  got.expect_owners({1, 5}, kBytes, 1);
  EXPECT_EQ(got.from_parity, 2);
  EXPECT_EQ(got.from_fs, 0);
}

TEST(CkptErasure, RsTailSetSavesAndRestoresTwoKillsInTheFullSet) {
  // 11 ranks in RS(6, 2) sets: a full set {0..7} and a tail set {8, 9, 10}
  // that keeps both parities over one data chunk. The blob size makes the
  // full set's chunk runs a mix of eager (one chunk) and rendezvous (two
  // chunks) messages, and two deaths in the full set make the restore
  // solve a 2x2 system, scaling pivot rows through the bulk kernel.
  constexpr int kRanks = 11;
  constexpr std::size_t kBytes = 20'000;
  std::atomic<int> saved{0};
  Adopted got;
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, kBytes);
    ckpt::Config cfg;
    cfg.scheme = ckpt::Scheme::reed_solomon;
    cfg.set_data = 6;
    cfg.set_parity = 2;
    ckpt::Checkpointer ck("rstail", cfg);
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);
    kill_and_restore(p, ck, data, kBytes, {2, 5}, &saved, kRanks, &got);
  });
  got.expect_owners({2, 5}, kBytes, 1);
  EXPECT_EQ(got.from_parity, 2);
  EXPECT_EQ(got.from_fs, 0);
}

TEST(CkptErasure, RsSaveSendsOneChunkMessagePerParityHolder) {
  // Traffic witness for the save exchange: on a 2x4 comm, one RS(6, 2)
  // set, every member owes each of the 7 other members one consecutive
  // run of its chunks, so the chunk phase is 8 x 7 = 56 messages. One
  // message per chunk per parity holder would be 8 x 6 x 2 = 96. Count
  // the message headers (eager or rendezvous RTS) carrying a tag from
  // save 0's chunk band, once per (src, dst, pml seq) so a retransmit
  // cannot count twice.
  std::mutex mu;
  std::set<std::tuple<int, int, std::uint32_t>> msgs;
  std::map<int, int> per_src;
  const auto starts_message = [](fabric::PacketKind k) {
    return k == fabric::PacketKind::eager ||
           k == fabric::PacketKind::eager_ext ||
           k == fabric::PacketKind::rndv_rts ||
           k == fabric::PacketKind::rndv_rts_ext;
  };
  world_run(2, 4, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    if (me == 0) {
      p.cluster().fabric().set_drop_filter([&](const fabric::Packet& pkt) {
        const int tag = pkt.match.tag;
        if (starts_message(pkt.kind) && tag <= detail::ckpt_tag(0, 2) &&
            tag >= detail::ckpt_tag(0, 1023)) {
          std::lock_guard lk(mu);
          if (msgs.emplace(pkt.src_rank, pkt.dst_rank, pkt.match.seq)
                  .second) {
            ++per_src[pkt.src_rank];
          }
        }
        return false;  // observe only
      });
    }
    comm_world().barrier();
    std::vector<std::uint8_t> data = payload(me, 1, 64 * 1024);
    ckpt::Config cfg;
    cfg.scheme = ckpt::Scheme::reed_solomon;
    cfg.set_data = 6;
    cfg.set_parity = 2;
    ckpt::Checkpointer ck("rswitness", cfg);
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);
    comm_world().barrier();
    if (me == 0) {
      p.cluster().fabric().set_drop_filter(nullptr);
    }
  });
  EXPECT_EQ(msgs.size(), 56u);
  ASSERT_EQ(per_src.size(), 8u);
  for (const auto& [src, count] : per_src) {
    EXPECT_EQ(count, 7) << "rank " << src;
  }
}

TEST(CkptErasure, BeyondParityToleranceIsUnrecoverableWithoutSpill) {
  constexpr int kRanks = 6;
  constexpr std::size_t kBytes = 48;
  std::atomic<int> saved{0};
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, kBytes);
    ckpt::Config cfg;
    cfg.scheme = ckpt::Scheme::reed_solomon;
    cfg.set_data = 4;
    cfg.set_parity = 2;
    ckpt::Checkpointer ck("rs3kill", cfg);
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);

    saved.fetch_add(1);
    if (me >= 1 && me <= 3) {  // 3 deaths in a set tolerating 2
      while (saved.load() < kRanks) {
        std::this_thread::sleep_for(1ms);
      }
      p.fail();
      return;
    }
    for (int d = 1; d <= 3; ++d) {
      while (!p.cluster().fabric().is_failed(d)) {
        std::this_thread::sleep_for(1ms);
      }
    }
    comm_world().ack_failed();
    Communicator survivors = comm_world().shrink();
    try {
      ck.restore(survivors);
      FAIL() << "restore beyond parity tolerance must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.error_class(), ErrClass::rte_not_found);
    }
    // The refusal is uniform and leaves the communicator usable.
    std::int64_t one = 1;
    std::int64_t sum = 0;
    survivors.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 3);
    survivors.free();
  });
}

TEST(CkptErasure, BeyondParityToleranceRecoversFromDurableSpill) {
  constexpr int kRanks = 6;
  constexpr std::size_t kBytes = 80;
  const std::uint64_t fs_before = base::counters().value("ckpt.fs_rebuilds");
  std::atomic<int> saved{0};
  Adopted got;
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, kBytes);
    ckpt::Config cfg;
    cfg.scheme = ckpt::Scheme::reed_solomon;
    cfg.set_data = 4;
    cfg.set_parity = 2;
    cfg.spill_to_fs = true;
    ckpt::Checkpointer ck("rs3spill", cfg);
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);
    // Make the spill durable before anyone dies: the redundancy set is
    // about to lose more members than its parity covers.
    EXPECT_TRUE(ck.drain_fence());
    kill_and_restore(p, ck, data, kBytes, {1, 2, 3}, &saved, kRanks, &got);
  });
  got.expect_owners({1, 2, 3}, kBytes, 1);
  EXPECT_EQ(got.from_fs, 3);  // every lost shard came off the filesystem
  EXPECT_EQ(got.from_parity, 0);
  EXPECT_GE(base::counters().value("ckpt.fs_rebuilds"), fs_before + 3);
}

TEST(CkptErasure, DeathMidDrainFallsBackToPreviousDurableEpoch) {
  constexpr int kRanks = 4;
  constexpr std::size_t kBytes = 4096;
  std::atomic<int> saved{0};
  Adopted got;
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, kBytes);
    ckpt::Config cfg;
    cfg.spill_to_fs = true;
    cfg.spill_chunk_bytes = 256;  // cancellation checks between chunks
    ckpt::Checkpointer ck("middrain", cfg);
    ck.register_dataset("data", data.data(), data.size());

    EXPECT_EQ(ck.save(comm_world()), 1u);
    EXPECT_TRUE(ck.drain_fence());  // epoch 1 durable everywhere

    // Slow the filesystem to ~20 us/byte so epoch 2's drain is guaranteed
    // to still be in flight when the victims die right after the commit.
    p.cluster().fs().set_write_delay_ns_per_byte(20'000);
    std::copy_n(payload(me, 2, kBytes).begin(), kBytes, data.begin());
    EXPECT_EQ(ck.save(comm_world()), 2u);

    // Ranks 1 and 2 (owner + its partner for epoch 2) die mid-drain: their
    // Checkpointer teardown cancels the in-flight spill, so epoch 2 never
    // gets its ".ok" marker there and restore must fall back to epoch 1.
    kill_and_restore(p, ck, data, kBytes, {1, 2}, &saved, kRanks, &got,
                     /*expect_epoch=*/1);
  });
  got.expect_owners({1, 2}, kBytes, 1);
  EXPECT_EQ(got.from_fs, 1);  // owner 1 (partner also dead) off epoch 1 spill
}

TEST(CkptErasure, TransientSpillFaultsRetryToDurable) {
  constexpr int kRanks = 2;
  const std::uint64_t retries_before =
      base::counters().value("ckpt.spill_retries");
  std::atomic<int> faults_left{3};
  world_run(1, kRanks, [&](sim::Process& p) {
    if (p.rank() == 0) {
      p.cluster().fs().set_fault_fn(
          [&](const std::string&, std::size_t, std::size_t) {
            return faults_left.fetch_sub(1) > 0;  // first 3 writes bounce
          });
    }
    comm_world().barrier();

    std::vector<std::uint8_t> data = payload(static_cast<int>(p.rank()), 1, 64);
    ckpt::Config cfg;
    cfg.spill_to_fs = true;
    ckpt::Checkpointer ck("retry", cfg);
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);
    EXPECT_TRUE(ck.drain_fence());  // retries absorbed the faults
    EXPECT_EQ(ck.drain_error(), "");
    EXPECT_TRUE(p.cluster().fs().exists(
        "/ckpt/retry/e1/r" + std::to_string(p.rank()) + ".ok"));

    comm_world().barrier();
    if (p.rank() == 0) {
      p.cluster().fs().set_fault_fn(nullptr);
    }
  });
  EXPECT_GE(base::counters().value("ckpt.spill_retries"), retries_before + 3);
}

TEST(CkptErasure, ExhaustedSpillRetriesFailStickyButSavesStillCommit) {
  constexpr int kRanks = 2;
  const std::uint64_t failures_before =
      base::counters().value("ckpt.drain_failures");
  world_run(1, kRanks, [&](sim::Process& p) {
    if (p.rank() == 0) {
      p.cluster().fs().set_fault_fn(
          [](const std::string&, std::size_t, std::size_t) { return true; });
    }
    comm_world().barrier();

    std::vector<std::uint8_t> data = payload(static_cast<int>(p.rank()), 1, 64);
    ckpt::Config cfg;
    cfg.spill_to_fs = true;
    cfg.spill_max_retries = 2;
    ckpt::Checkpointer ck("exhaust", cfg);
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);
    EXPECT_FALSE(ck.drain_fence());  // the drain failed, terminally
    EXPECT_NE(ck.drain_error(), "");
    EXPECT_FALSE(p.cluster().fs().exists(
        "/ckpt/exhaust/e1/r" + std::to_string(p.rank()) + ".ok"));

    // A dead filesystem level must not block checkpointing: the in-memory
    // levels are intact, so the next save still commits (the pre-vote
    // fence sees a *terminal* state, not success).
    std::copy_n(payload(static_cast<int>(p.rank()), 2, 64).begin(), 64,
                data.begin());
    EXPECT_EQ(ck.save(comm_world()), 2u);
    EXPECT_EQ(ck.last_committed(), 2u);
    EXPECT_FALSE(ck.drain_fence());  // the first cause is sticky

    comm_world().barrier();
    if (p.rank() == 0) {
      p.cluster().fs().set_fault_fn(nullptr);
    }
  });
  EXPECT_GE(base::counters().value("ckpt.drain_failures"),
            failures_before + 2);
}

}  // namespace
}  // namespace sessmpi
