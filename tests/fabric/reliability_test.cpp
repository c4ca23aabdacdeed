// Reliable-delivery sublayer tests: exactly-once in-order delivery under
// seeded loss, duplicate suppression, retry-exhaustion escalation, mid-run
// filter swaps, and reordering injection (DESIGN.md §9).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sessmpi/base/stats.hpp"
#include "sessmpi/fabric/fabric.hpp"

namespace sessmpi::fabric {
namespace {

using namespace std::chrono_literals;

/// Reliability knobs scaled for a zero-cost fabric: microsecond-scale RTOs
/// so lossy tests converge in milliseconds rather than the calibrated
/// defaults' hundreds of milliseconds.
ReliabilityConfig fast_rel(int max_retries = 100) {
  ReliabilityConfig rel;
  rel.tick_ns = 100'000;       // 0.1 ms pump
  rel.rto_base_ns = 500'000;   // 0.5 ms first retransmit
  rel.rto_cap_ns = 2'000'000;  // 2 ms cap
  rel.max_retries = max_retries;
  return rel;
}

Fabric make_fabric(ReliabilityConfig rel = fast_rel()) {
  return Fabric{base::Topology{1, 4}, base::CostModel::zero(), rel};
}

Packet make_packet(base::Rank src, base::Rank dst, int tag) {
  Packet p;
  p.src_rank = src;
  p.dst_rank = dst;
  p.match.src = src;
  p.match.tag = tag;
  return p;
}

/// Seeded Bernoulli filter over a shared packet counter (SplitMix64), the
/// same construction sim::ChaosMonkey uses: deterministic in the sequence
/// of packets examined.
Fabric::PacketFilter seeded_drop(std::shared_ptr<std::atomic<std::uint64_t>> n,
                                 std::uint64_t seed, double fraction) {
  return [n = std::move(n), seed, fraction](const Packet&) {
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ull *
                                 (n->fetch_add(1, std::memory_order_relaxed) + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
  };
}

TEST(Reliability, ExactlyOnceInOrderUnderSeededLoss) {
  for (const double fraction : {0.01, 0.1, 0.3}) {
    auto f = make_fabric();
    auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
    f.set_drop_filter(seeded_drop(counter, 0x10c5 + 17, fraction));
    constexpr int kPackets = 400;
    for (int i = 0; i < kPackets; ++i) {
      f.send(make_packet(0, 1, i));
    }
    ASSERT_TRUE(f.quiesce(60s)) << "fraction " << fraction;
    EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kPackets))
        << "fraction " << fraction;
    for (int i = 0; i < kPackets; ++i) {
      auto got = f.endpoint(1).inbox().try_pop();
      ASSERT_TRUE(got.has_value()) << "fraction " << fraction << " i " << i;
      EXPECT_EQ(got->match.tag, i);  // in-order despite loss
    }
    EXPECT_FALSE(f.endpoint(1).inbox().try_pop().has_value());
    if (fraction >= 0.1) {
      EXPECT_GT(f.retransmits(), 0u) << "fraction " << fraction;
    }
    EXPECT_EQ(f.rto_escalations(), 0u) << "fraction " << fraction;
  }
}

TEST(Reliability, AdaptiveEnginesPreserveExactlyOnceUnderSeededLoss) {
  // The same seeded-loss contract as above, but with the congestion window
  // engaged: aimd must not change delivery semantics, only pacing. At 10%
  // loss the SACK/dup-ack path fires, so most repairs are fast retransmits
  // rather than RTO expiries (DESIGN.md §17).
  ReliabilityConfig rel = fast_rel();
  CcConfig cc;
  cc.engine = CcEngine::aimd;
  rel.cc = cc;
  auto f = make_fabric(rel);
  auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
  f.set_drop_filter(seeded_drop(counter, 0x10c5 + 17, 0.1));
  constexpr int kPackets = 400;
  for (int i = 0; i < kPackets; ++i) {
    f.send(make_packet(0, 1, i));
  }
  ASSERT_TRUE(f.quiesce(60s));
  f.set_drop_filter(nullptr);
  EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    auto got = f.endpoint(1).inbox().try_pop();
    ASSERT_TRUE(got.has_value()) << " i " << i;
    EXPECT_EQ(got->match.tag, i);  // in-order despite loss + windowing
  }
  EXPECT_FALSE(f.endpoint(1).inbox().try_pop().has_value());
  EXPECT_GT(f.retransmits(), 0u);
  EXPECT_GT(f.fast_retransmits(), 0u);
  EXPECT_EQ(f.rto_escalations(), 0u);
  EXPECT_EQ(f.unacked(), 0u);
}

TEST(Reliability, TailProbeWaitsForTheFirstTransmit) {
  // A sender descheduled between windowing a packet and putting it on the
  // wire leaves the flow silent, but nothing was lost. The drop filter
  // runs inside that first transmit, so stalling it there for 25 tail-loss
  // probe timeouts (aimd, 0.2 ms) must not make the pump probe a packet
  // that has not left yet: the probe would arrive first and the original
  // would be suppressed as its duplicate.
  ReliabilityConfig rel = fast_rel();
  CcConfig cc;
  cc.engine = CcEngine::aimd;
  rel.cc = cc;
  auto f = make_fabric(rel);
  auto stalled = std::make_shared<std::atomic<bool>>(false);
  f.set_drop_filter([stalled](const Packet& p) {
    if (p.kind != PacketKind::flow_ack && !stalled->exchange(true)) {
      std::this_thread::sleep_for(5ms);
    }
    return false;
  });
  f.send(make_packet(0, 1, 7));
  ASSERT_TRUE(f.quiesce(60s));
  f.set_drop_filter(nullptr);
  EXPECT_EQ(f.endpoint(1).delivered(), 1u);
  EXPECT_EQ(f.tlp_probes(), 0u);
  EXPECT_EQ(f.retransmits(), 0u);
  EXPECT_EQ(f.dup_suppressed(), 0u);
}

TEST(Reliability, LostAcksCauseDupSuppressionNotDoubleDelivery) {
  auto f = make_fabric();
  // Eat every ACK: data arrives first try, but the sender window can never
  // retire, so the pump keeps retransmitting already-delivered packets.
  f.set_drop_filter(
      [](const Packet& p) { return p.kind == PacketKind::flow_ack; });
  f.send(make_packet(0, 1, 7));
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (f.dup_suppressed() < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  // Let an ACK through; everything retires.
  f.set_drop_filter(nullptr);
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(1).delivered(), 1u);  // duplicates never delivered
  auto got = f.endpoint(1).inbox().try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->match.tag, 7);
  EXPECT_FALSE(f.endpoint(1).inbox().try_pop().has_value());
  EXPECT_GE(f.retransmits(), f.dup_suppressed());
  EXPECT_EQ(f.unacked(), 0u);
}

TEST(Reliability, RetryExhaustionEscalatesToUnreachable) {
  auto f = make_fabric(fast_rel(/*max_retries=*/2));
  std::atomic<Rank> escalated{-1};
  f.set_unreachable_callback([&](Rank r) {
    escalated.store(r, std::memory_order_relaxed);
  });
  // A black-holed destination: every packet to rank 2 vanishes.
  f.set_drop_filter([](const Packet& p) { return p.dst_rank == 2; });
  f.send(make_packet(0, 2, 1));
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!f.is_failed(2)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(f.rto_escalations(), 1u);
  EXPECT_EQ(escalated.load(std::memory_order_relaxed), 2);
  // The dead flow is garbage-collected, so the fabric drains.
  EXPECT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(2).delivered(), 0u);
  // Other destinations are unaffected.
  f.send(make_packet(0, 1, 9));
  EXPECT_EQ(f.endpoint(1).delivered(), 1u);
}

TEST(Reliability, DropFilterSwapsSafelyMidRun) {
  auto f = make_fabric();
  constexpr int kPerSender = 300;
  std::vector<std::thread> senders;
  for (const Rank src : {0, 2, 3}) {
    senders.emplace_back([&f, src] {
      for (int i = 0; i < kPerSender; ++i) {
        f.send(make_packet(src, 1, i));
      }
    });
  }
  // Toggle lossiness while the senders hammer the fabric: install, swap,
  // and clear must all be safe against in-flight traffic.
  auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
  for (int round = 0; round < 50; ++round) {
    f.set_drop_filter(seeded_drop(counter, 0xabcd + round, 0.3));
    std::this_thread::sleep_for(200us);
    f.set_drop_filter(nullptr);
    std::this_thread::sleep_for(200us);
  }
  for (auto& t : senders) {
    t.join();
  }
  f.set_drop_filter(nullptr);
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(1).delivered(), 3u * kPerSender);  // exactly once
  // Per-source streams stay in order even across filter swaps.
  std::array<int, 4> next{};
  while (auto got = f.endpoint(1).inbox().try_pop()) {
    EXPECT_EQ(got->match.tag, next[static_cast<std::size_t>(got->src_rank)]++);
  }
  EXPECT_EQ(next[0], kPerSender);
  EXPECT_EQ(next[2], kPerSender);
  EXPECT_EQ(next[3], kPerSender);
}

TEST(Reliability, ReorderInjectionIsInvisibleAboveTheFabric) {
  auto f = make_fabric();
  const std::uint64_t reordered_before = base::counters().value("fabric.reordered");
  // Hold back every third sequenced packet one pump tick so later traffic
  // overtakes it on the wire.
  auto n = std::make_shared<std::atomic<std::uint64_t>>(0);
  f.set_reorder_filter([n](const Packet&) {
    return n->fetch_add(1, std::memory_order_relaxed) % 3 == 2;
  });
  constexpr int kPackets = 90;
  for (int i = 0; i < kPackets; ++i) {
    f.send(make_packet(0, 1, i));
  }
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_GT(base::counters().value("fabric.reordered"), reordered_before);
  EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    auto got = f.endpoint(1).inbox().try_pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->match.tag, i);  // reorder buffer restored flow order
  }
}

TEST(Reliability, LosslessBidirectionalTrafficStaysQuiet) {
  auto f = make_fabric();
  constexpr int kRounds = 200;
  for (int i = 0; i < kRounds; ++i) {
    f.send(make_packet(0, 1, i));
    f.send(make_packet(1, 0, i));  // piggybacks the ACK for 0 -> 1
  }
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(0).delivered(), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kRounds));
  // The happy path never touches the recovery machinery.
  EXPECT_EQ(f.retransmits(), 0u);
  EXPECT_EQ(f.dup_suppressed(), 0u);
  EXPECT_EQ(f.rto_escalations(), 0u);
  EXPECT_EQ(f.bytes_dropped(), 0u);
  EXPECT_EQ(f.unacked(), 0u);
}

}  // namespace
}  // namespace sessmpi::fabric
