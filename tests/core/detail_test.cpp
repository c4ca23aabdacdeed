// White-box tests of core internals (compiled with the core's private
// include directory): the consensus CID algorithm's round behaviour, the
// subset allreduce building block, the shared binomial tree, and the
// tag-space helpers.

#include <gtest/gtest.h>

#include "detail/cid.hpp"
#include "detail/state.hpp"
#include "detail/tree.hpp"
#include "harness.hpp"

namespace sessmpi::detail {
namespace {

using sessmpi::testing::world_run;

TEST(InternalTags, AllBelowInternalBaseAndDistinct) {
  // Collective tags must never collide with application tags (>= 0) or the
  // wildcard sentinels.
  std::set<int> seen;
  for (std::uint32_t seq = 0; seq < 200; ++seq) {
    for (int round = 0; round < 4; ++round) {
      const int tag = internal_tag(seq, round);
      EXPECT_LE(tag, kInternalTagBase);
      EXPECT_NE(tag, any_tag);
      EXPECT_TRUE(seen.insert(tag).second)
          << "tag collision at seq=" << seq << " round=" << round;
    }
  }
}

TEST(TagsMatch, WildcardRules) {
  // Exact matches.
  EXPECT_TRUE(tags_match(3, 7, 3, 7));
  EXPECT_FALSE(tags_match(3, 7, 2, 7));
  EXPECT_FALSE(tags_match(3, 7, 3, 8));
  // Source wildcard.
  EXPECT_TRUE(tags_match(any_source, 7, 99, 7));
  // Tag wildcard matches application tags only.
  EXPECT_TRUE(tags_match(3, any_tag, 3, 0));
  EXPECT_TRUE(tags_match(3, any_tag, 3, 12345));
  EXPECT_FALSE(tags_match(3, any_tag, 3, kInternalTagBase));
  EXPECT_FALSE(tags_match(3, any_tag, 3, -5000));
  // Internal tags match exactly even though negative.
  EXPECT_TRUE(tags_match(3, kInternalTagBase - 8, 3, kInternalTagBase - 8));
}

// The one binomial tree, under every rotation a rooted operation uses:
// each non-root rank has exactly one parent, which lists it as a child; no
// rank is its own child; no rank sits deeper than ceil(log2 n).
TEST(BinomialTree, ParentChildConsistentAndLogDepthUnderEveryRotation) {
  for (int n = 1; n <= 65; ++n) {
    int ceil_log2 = 0;
    while ((1 << ceil_log2) < n) {
      ++ceil_log2;
    }
    for (int root = 0; root < n; ++root) {
      const auto real = [&](int v) { return (v + root) % n; };
      std::vector<Tree> t(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        t[static_cast<std::size_t>(r)] =
            mapped_tree((r - root + n) % n, n, real);
      }
      std::vector<int> parents_listing(static_cast<std::size_t>(n), 0);
      for (int r = 0; r < n; ++r) {
        for (int c : t[static_cast<std::size_t>(r)].children) {
          ASSERT_GE(c, 0);
          ASSERT_LT(c, n);
          EXPECT_NE(c, r) << "n=" << n << " root=" << root;
          EXPECT_EQ(t[static_cast<std::size_t>(c)].parent, r)
              << "n=" << n << " root=" << root << " child=" << c;
          ++parents_listing[static_cast<std::size_t>(c)];
        }
      }
      for (int r = 0; r < n; ++r) {
        const Tree& tr = t[static_cast<std::size_t>(r)];
        if (r == root) {
          EXPECT_EQ(tr.parent, -1);
          EXPECT_EQ(parents_listing[static_cast<std::size_t>(r)], 0);
          continue;
        }
        EXPECT_EQ(parents_listing[static_cast<std::size_t>(r)], 1)
            << "n=" << n << " root=" << root << " rank=" << r;
        int depth = 0;
        for (int a = r; a != root && depth <= n; ++depth) {
          a = t[static_cast<std::size_t>(a)].parent;
          ASSERT_GE(a, 0) << "n=" << n << " root=" << root << " rank=" << r;
        }
        EXPECT_LE(depth, ceil_log2)
            << "n=" << n << " root=" << root << " rank=" << r;
      }
    }
  }
}

TEST(SubsetAllreduce, MaxPairOverAllRanks) {
  world_run(1, 4, [](sim::Process& p) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    std::vector<int> everyone{0, 1, 2, 3};
    const auto r = subset_allreduce_max2(
        ps, comm, everyone,
        {static_cast<std::int64_t>(p.rank()),
         -static_cast<std::int64_t>(p.rank())},
        internal_tag(1000, 0));
    EXPECT_EQ(r[0], 3);   // max rank
    EXPECT_EQ(r[1], 0);   // max(-rank) = -min(rank)
  });
}

TEST(SubsetAllreduce, SubsetOnlyTouchesParticipants) {
  world_run(1, 4, [](sim::Process& p) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    if (p.rank() == 1 || p.rank() == 3) {
      const auto r = subset_allreduce_max2(
          ps, comm, {1, 3},
          {static_cast<std::int64_t>(10 * p.rank()), 0},
          internal_tag(2000, 0));
      EXPECT_EQ(r[0], 30);
    }
    comm_world().barrier();
  });
}

TEST(ConsensusCid, SingleRoundWhenUnfragmented) {
  world_run(1, 4, [](sim::Process&) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    int rounds = 0;
    const auto cid = consensus_cid(ps, comm, {0, 1, 2, 3},
                                   internal_tag(3000, 0), &rounds);
    EXPECT_EQ(rounds, 1) << "aligned free slots must agree immediately";
    // Slot claimed on every process.
    std::lock_guard lock(ps.mu);
    EXPECT_TRUE(ps.cid_alloc.is_used(cid));
  });
}

TEST(ConsensusCid, DivergentFragmentationNeedsExtraRounds) {
  world_run(1, 2, [](sim::Process& p) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    // Rank 0 pre-claims slots 2..5, rank 1 claims nothing: proposals
    // diverge (rank0 proposes 6, rank1 proposes 2) and need a second round.
    if (p.rank() == 0) {
      std::lock_guard lock(ps.mu);
      for (std::uint32_t i = 2; i <= 5; ++i) {
        ASSERT_TRUE(ps.cid_alloc.claim(i));
      }
    }
    int rounds = 0;
    const auto cid = consensus_cid(ps, comm, {0, 1}, internal_tag(4000, 0),
                                   &rounds);
    EXPECT_EQ(cid, 6);  // lowest index free on BOTH processes
    if (p.rank() == 1) {
      EXPECT_GE(rounds, 2);
    }
    std::lock_guard lock(ps.mu);
    EXPECT_TRUE(ps.cid_alloc.is_used(6));
    // Rank 1's transient claims from failed rounds were released.
    if (p.rank() == 1) {
      EXPECT_FALSE(ps.cid_alloc.is_used(2));
    }
  });
}

TEST(ConsensusCid, ManySequentialAgreementsStayAligned) {
  world_run(1, 3, [](sim::Process&) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    std::vector<std::uint16_t> got;
    for (int i = 0; i < 10; ++i) {
      got.push_back(consensus_cid(ps, comm, {0, 1, 2},
                                  internal_tag(5000 + i, 0)));
    }
    // All agreed IDs are distinct and ascending (lowest-free allocation).
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_GT(got[i], got[i - 1]);
    }
    // Cross-rank agreement: allreduce of each value must equal the value.
    for (std::uint16_t v : got) {
      std::int64_t mine = v, mx = 0, mn = 0;
      comm_world().allreduce(&mine, &mx, 1, Datatype::int64(), Op::max());
      comm_world().allreduce(&mine, &mn, 1, Datatype::int64(), Op::min());
      EXPECT_EQ(mx, mn);
    }
  });
}

TEST(ProcStateInternals, CommRegistrationTables) {
  world_run(1, 1, [](sim::Process&) {
    ProcState& ps = ProcState::current();
    auto world = detail_unwrap(comm_world());
    std::lock_guard lock(ps.mu);
    // COMM_WORLD occupies slot 0, COMM_SELF slot 1.
    ASSERT_GE(ps.comm_by_cid.size(), 2u);
    EXPECT_EQ(ps.comm_by_cid[0].get(), world.get());
    EXPECT_TRUE(ps.cid_alloc.is_used(0));
    EXPECT_TRUE(ps.cid_alloc.is_used(1));
    // World-model comms are not in the exCID table.
    EXPECT_EQ(ps.comm_by_excid.count(world->excid_space.id()), 0u);
  });
}

}  // namespace
}  // namespace sessmpi::detail
