// The per-message path's resource budget (DESIGN.md §12, "The per-message
// path"): a warm 8 B message allocates (almost) nothing on the rank's own
// thread, the match tables stay bounded however many distinct internal
// tags pass through them, and a cost model whose links cannot queue
// installs no ECN marker. This binary replaces the global operator new to
// count allocations per thread, which is why it is a binary of its own.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "detail/state.hpp"
#include "harness.hpp"

namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) {
    ++g_allocs;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  if (g_counting) {
    ++g_allocs;
  }
  // aligned_alloc wants a non-zero size that is a multiple of the alignment.
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, std::max(a, (n + a - 1) / a * a))) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable allocation form is counted: the message path holds
// over-aligned types (Flow, Endpoint, FlowShard), which go through the
// align_val_t overloads.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sessmpi::detail {
namespace {

using sessmpi::testing::world_run;

constexpr int kTag = 5;
constexpr int kWarm = 200;
constexpr int kTimed = 1000;
/// Allocations per warm message allowed on a rank's own thread: rare ring
/// growth only. Before the match queues, inbox and flow window reused
/// their storage a message cost several (deque maps and nodes, map nodes).
constexpr double kMaxPerMessage = 0.05;

/// Warm 8 B ping-pongs between ranks 0 and 1; returns the heap allocations
/// the calling rank's thread made during the `timed` ones.
std::uint64_t pingpong_allocs(const Communicator& world, int rank, int warm,
                              int timed) {
  std::uint64_t v = 0;
  const int peer = 1 - rank;
  const auto round = [&] {
    if (rank == 0) {
      world.send(&v, 8, Datatype::byte(), peer, kTag);
      world.recv(&v, 8, Datatype::byte(), peer, kTag);
    } else {
      world.recv(&v, 8, Datatype::byte(), peer, kTag);
      ++v;
      world.send(&v, 8, Datatype::byte(), peer, kTag);
    }
  };
  for (int i = 0; i < warm; ++i) {
    round();
  }
  g_allocs = 0;
  g_counting = true;
  for (int i = 0; i < timed; ++i) {
    round();
  }
  g_counting = false;
  EXPECT_EQ(v, static_cast<std::uint64_t>(warm + timed));
  return g_allocs;
}

TEST(LeanPath, HookCountsEveryAllocationForm) {
  struct alignas(64) Wide {
    char c[64];
  };
  // Stored through a volatile, so the compiler cannot elide the pairs.
  static int* volatile one;
  static int* volatile many;
  static Wide* volatile wide;
  static Wide* volatile wides;
  g_allocs = 0;
  g_counting = true;
  one = new int(1);
  many = new int[2];
  wide = new Wide;
  wides = new Wide[2];
  g_counting = false;
  delete one;
  delete[] many;
  delete wide;
  delete[] wides;
  EXPECT_EQ(g_allocs, 4u);
}

TEST(LeanPath, WarmEightByteMessagesBarelyAllocate) {
  // Each rank sends and receives `kTimed` messages. Once the peer is warm,
  // the request, payload, inbox, flow window and match queues all reuse
  // their storage.
  world_run(2, 1, [](sim::Process& p) {
    Communicator world = comm_world();
    const std::uint64_t allocs =
        pingpong_allocs(world, p.rank(), kWarm, kTimed);
    const double per_message =
        static_cast<double>(allocs) / (2.0 * kTimed);
    EXPECT_LT(per_message, kMaxPerMessage)
        << "rank " << p.rank() << ": " << allocs << " allocations over "
        << 2 * kTimed << " messages";
    world.barrier();
  });
}

TEST(LeanPath, MatchTablesStayBoundedAcrossDistinctInternalTags) {
  // 10 000 distinct internal tags pass through one communicator: half
  // arrive before their receive is posted (unexpected side), half after
  // (posted side). Drained queues are kept for reuse, but never more than
  // the sweep slack, so neither table grows with the number of tags seen.
  constexpr int kTags = 10'000;
  // Two nodes, so the barriers below travel as pt2pt messages behind the
  // data on the same flow, which makes the posted/unexpected split exact.
  world_run(2, 1, [](sim::Process& p) {
    Communicator world = comm_world();
    CommState& comm = *detail_unwrap(world);
    ProcState& ps = *comm.ps;
    const auto tag_of = [](int i) {
      return ckpt_tag(static_cast<std::uint32_t>(i), 0);
    };
    std::vector<std::int32_t> got(kTags);
    std::vector<RequestPtr> reqs;
    const auto post = [&](int from, int to) {
      for (int i = from; i < to; ++i) {
        reqs.push_back(ps.irecv_impl(comm, &got[static_cast<std::size_t>(i)],
                                     1, datatype_of<std::int32_t>(), 0,
                                     tag_of(i)));
      }
    };
    const auto send = [&](int from, int to) {
      for (int i = from; i < to; ++i) {
        const std::int32_t v = i;
        ps.blocking_send(comm, &v, 1, datatype_of<std::int32_t>(), 1,
                         tag_of(i), /*sync=*/false);
      }
    };
    constexpr int kHalf = kTags / 2;
    if (p.rank() == 0) {
      send(0, kHalf);  // lands unexpected: rank 1 posts after the barrier
      world.barrier();
      world.barrier();
      send(kHalf, kTags);  // lands on posted receives
    } else {
      world.barrier();
      post(0, kHalf);
      post(kHalf, kTags);
      world.barrier();
      for (const RequestPtr& r : reqs) {
        ps.progress_until([&] { return r->done(); });
      }
      for (int i = 0; i < kTags; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
      }
      std::lock_guard lock(ps.mu);
      EXPECT_TRUE(comm.posted.empty());
      EXPECT_TRUE(comm.unexpected.empty());
      EXPECT_LE(comm.posted.tag_queue_count(), kIdleSlack);
      EXPECT_LE(comm.posted.bin_count(), kIdleSlack);
      EXPECT_LE(comm.unexpected.tag_queue_count(), kIdleSlack);
      EXPECT_LE(comm.unexpected.bin_count(), kIdleSlack);
    }
    world.barrier();
  });
}

TEST(LeanPath, CeMarkerOnlyWhereLinksCanQueue) {
  constexpr int kSenders = 4;
  // Zero cost: inter-node packets occupy no wire time, no backlog can
  // build, so the cluster installs no marker at all.
  {
    sim::Cluster::Options o = sessmpi::testing::zero_opts(2, 1);
    o.ecn_threshold_ns = 1;
    sim::Cluster cluster{o};
    EXPECT_FALSE(cluster.fabric().has_ce_marker());
  }
  // Calibrated cost: the ranks of node 0 stream to node 1 at once, the
  // shared link queues, and packets get marked.
  sim::Cluster::Options o;
  o.topo = {2, kSenders};
  o.ecn_threshold_ns = 1;
  sim::Cluster cluster{o};
  ASSERT_TRUE(cluster.fabric().has_ce_marker());
  std::atomic<int> ready{0};
  cluster.run([&](sim::Process& p) {
    if (p.node() != 0) {
      return;
    }
    // Start together: rank threads come up staggered by up to milliseconds.
    ready.fetch_add(1);
    while (ready.load() < kSenders) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 40; ++i) {
      fabric::Packet pkt;
      pkt.kind = fabric::PacketKind::eager;
      pkt.src_rank = p.rank();
      pkt.dst_rank = p.rank() + kSenders;
      pkt.payload = fabric::Payload(16 * 1024);
      cluster.fabric().send(std::move(pkt));
    }
  });
  EXPECT_GT(cluster.fabric().ecn_marks(), 0u);
}

}  // namespace
}  // namespace sessmpi::detail
