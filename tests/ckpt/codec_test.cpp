// Erasure-codec unit tests: redundancy-set layout partition properties,
// Reed-Solomon stripe round-trips (the single-parity RAID-5 shape
// included) under every loss pattern the code tolerates, over-tolerance
// rejection, and parameter validation. Pure arithmetic — no simulated
// cluster involved.

#include "sessmpi/ckpt/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "sessmpi/base/error.hpp"
#include "sessmpi/base/gf256.hpp"

namespace sessmpi::ckpt {
namespace {

/// Deterministic pseudo-random chunk contents (LCG, seeded per chunk).
std::vector<std::byte> chunk_bytes(int seed, std::size_t len) {
  std::vector<std::byte> v(len);
  auto x = static_cast<std::uint32_t>(seed) * 2654435761u + 12345u;
  for (auto& b : v) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  return v;
}

TEST(Codec, SetLayoutPartitionsRanksWithGracefulTail) {
  constexpr int k = 4;
  constexpr int m = 2;
  for (int n = 1; n <= 14; ++n) {
    for (int r = 0; r < n; ++r) {
      const SetLayout s = set_layout(n, r, k, m);
      EXPECT_EQ(s.data + s.parity, s.size);
      EXPECT_GE(s.first, 0);
      EXPECT_LE(s.first + s.size, n);
      EXPECT_GE(r, s.first);
      EXPECT_LT(r, s.first + s.size);
      EXPECT_EQ(s.first % (k + m), 0);  // sets are aligned blocks
      EXPECT_EQ(s.member_of(r), r - s.first);
      if (s.first + k + m <= n) {
        EXPECT_EQ(s.size, k + m);  // interior set: the full shape
        EXPECT_EQ(s.parity, m);
      } else {
        EXPECT_EQ(s.size, n - s.first);  // tail set shrinks
        EXPECT_EQ(s.parity, std::min(m, s.size - 1));
      }
    }
  }
  // A 1-member tail has no redundancy; a 2-member set is duplication.
  EXPECT_EQ(set_layout(7, 6, k, m).parity, 0);
  EXPECT_EQ(set_layout(8, 7, k, m).parity, 1);
}

TEST(Codec, EveryMemberHoldsExactlyOneChunkPerStripe) {
  const SetLayout s{0, 6, 4, 2};
  for (int stripe = 0; stripe < s.size; ++stripe) {
    std::set<int> holders;
    for (int j = 0; j < s.data; ++j) {
      const int mem = s.data_member(stripe, j);
      holders.insert(mem);
      EXPECT_EQ(s.stripe_of_chunk(mem, j), stripe);  // inverse mapping
      EXPECT_EQ(s.parity_index(stripe, mem), -1);    // holds data there
    }
    for (int i = 0; i < s.parity; ++i) {
      const int mem = s.parity_member(stripe, i);
      holders.insert(mem);
      EXPECT_EQ(s.parity_index(stripe, mem), i);
    }
    // k data + m parity chunks land on k + m distinct members: the set
    // loses at most one chunk per stripe per dead member.
    EXPECT_EQ(holders.size(), static_cast<std::size_t>(s.size));
  }
}

TEST(Codec, ChunkRunsAreConsecutiveAndCoverEachChunkMTimes) {
  // The save exchange sends each (member, holder) pair one message: the
  // slice chunk_run(member, holder) of the member's padded blob. That is
  // only sound if the chunks a holder keeps parity for form one
  // consecutive run, and if the runs together deliver every chunk to
  // exactly the m holders parity_index names. Check every set shape the
  // checkpointer accepts (g = k + m <= 31, m < g): 496 shapes.
  int shapes = 0;
  for (int g = 1; g <= 31; ++g) {
    for (int m = 0; m < g; ++m) {
      ++shapes;
      const SetLayout s{0, g, g - m, m};
      for (int x = 0; x < g; ++x) {
        std::vector<int> receivers(static_cast<std::size_t>(s.data), 0);
        for (int h = 0; h < g; ++h) {
          const ChunkRun run = s.chunk_run(x, h);
          ASSERT_LE(0, run.begin) << "g=" << g << " m=" << m;
          ASSERT_LE(run.begin, run.end) << "g=" << g << " m=" << m;
          ASSERT_LE(run.end, s.data) << "g=" << g << " m=" << m;
          if (h == x) {
            ASSERT_EQ(run.size(), 0) << "member sends to itself: g=" << g
                                     << " m=" << m << " x=" << x;
          }
          // The run is exactly the set of x's chunks whose stripe has h
          // as a parity holder — so that set is consecutive.
          for (int j = 0; j < s.data; ++j) {
            const bool holds =
                s.parity_index(s.stripe_of_chunk(x, j), h) >= 0;
            ASSERT_EQ(holds, j >= run.begin && j < run.end)
                << "g=" << g << " m=" << m << " x=" << x << " h=" << h
                << " j=" << j;
            receivers[static_cast<std::size_t>(j)] += holds ? 1 : 0;
          }
        }
        for (int j = 0; j < s.data; ++j) {
          ASSERT_EQ(receivers[static_cast<std::size_t>(j)], m)
              << "g=" << g << " m=" << m << " x=" << x << " j=" << j;
          // ...and those m holders are the stripe's parity members.
          const int st = s.stripe_of_chunk(x, j);
          for (int i = 0; i < m; ++i) {
            const ChunkRun run = s.chunk_run(x, s.parity_member(st, i));
            ASSERT_TRUE(j >= run.begin && j < run.end)
                << "g=" << g << " m=" << m << " x=" << x << " j=" << j;
          }
        }
      }
    }
  }
  EXPECT_EQ(shapes, 496);
}

/// Drops the stripe positions in `mask` (bits 0..k-1 = data chunks,
/// k..k+m-1 = parity chunks; lost data is zeroed first), runs reconstruct,
/// and returns its verdict with the resulting data chunks in `work`.
bool reconstruct_after_loss(const SetCodec& codec, unsigned mask,
                            const std::vector<std::vector<std::byte>>& data,
                            const std::vector<std::vector<std::byte>>& parity,
                            std::vector<std::vector<std::byte>>& work) {
  const int k = codec.k();
  const int m = codec.m();
  work = data;
  const auto ok = std::make_unique<bool[]>(static_cast<std::size_t>(k));
  std::vector<std::byte*> wptr;
  for (int j = 0; j < k; ++j) {
    auto& w = work[static_cast<std::size_t>(j)];
    ok[static_cast<std::size_t>(j)] = (mask & (1u << j)) == 0;
    if (!ok[static_cast<std::size_t>(j)]) {
      std::fill(w.begin(), w.end(), std::byte{0});
    }
    wptr.push_back(w.data());
  }
  std::vector<const std::byte*> pptr;
  for (int i = 0; i < m; ++i) {
    pptr.push_back((mask & (1u << (k + i))) != 0
                       ? nullptr
                       : parity[static_cast<std::size_t>(i)].data());
  }
  return codec.reconstruct(wptr.data(), ok.get(), pptr.data(),
                           data.front().size());
}

/// Encodes a seeded RS(k, m) stripe of `len`-byte chunks, checks that every
/// subset of <= m lost chunks across the k + m stripe positions round-trips
/// bitwise, and that each mask in `refused` (beyond tolerance) is refused
/// with its lost data chunks left zeroed.
void check_round_trips(int k, int m, std::size_t len,
                       const std::vector<unsigned>& refused) {
  const auto codec = make_codec(Scheme::reed_solomon, k, m);
  ASSERT_NE(codec, nullptr);
  EXPECT_EQ(codec->k(), k);
  EXPECT_EQ(codec->m(), m);

  std::vector<std::vector<std::byte>> data;
  std::vector<const std::byte*> dptr;
  for (int j = 0; j < k; ++j) {
    data.push_back(chunk_bytes(100 + j, len));
    dptr.push_back(data.back().data());
  }
  std::vector<std::vector<std::byte>> parity(static_cast<std::size_t>(m),
                                             std::vector<std::byte>(len));
  for (int i = 0; i < m; ++i) {
    codec->encode(i, dptr.data(), len,
                  parity[static_cast<std::size_t>(i)].data());
  }

  std::vector<std::vector<std::byte>> work;
  for (unsigned mask = 0; mask < (1u << (k + m)); ++mask) {
    if (std::popcount(mask) > m) {
      continue;
    }
    ASSERT_TRUE(reconstruct_after_loss(*codec, mask, data, parity, work))
        << "k=" << k << " m=" << m << " mask=" << mask;
    ASSERT_EQ(work, data) << "k=" << k << " m=" << m << " mask=" << mask;
  }

  // Beyond tolerance: any pattern where more data chunks are missing than
  // parity chunks survive is refused without touching the buffers.
  for (const unsigned mask : refused) {
    ASSERT_GT(std::popcount(mask), m);
    EXPECT_FALSE(reconstruct_after_loss(*codec, mask, data, parity, work))
        << "k=" << k << " m=" << m << " mask=" << mask;
    for (int j = 0; j < k; ++j) {
      if ((mask & (1u << j)) != 0) {
        EXPECT_EQ(work[static_cast<std::size_t>(j)],
                  std::vector<std::byte>(len, std::byte{0}));
      }
    }
  }
}

TEST(Codec, ReedSolomonRoundTripsEveryLossPatternUpToM) {
  check_round_trips(4, 2, 29, {0b000111u, 0b110011u, 0b010111u});
}

TEST(Codec, SingleParityRoundTripsAnySingleDataLoss) {
  // RS(4, 1), the single-parity (RAID-5) shape: recovers any one lost data
  // chunk or the lost parity, and refuses a data chunk lost together with
  // the parity, or two lost data chunks.
  check_round_trips(4, 1, 33, {0b00011u, 0b10001u, 0b01100u});
}

TEST(Codec, ReedSolomonParityMatchesPerByteReference) {
  // Golden check for the bulk GF(2^8) kernel: every parity byte of a
  // seeded RS(6, 2) stripe equals the per-byte log/exp definition
  // p_i[b] = sum_j mul(cauchy(k, i, j), d_j[b]). The chunk length is not
  // a multiple of 16, so the kernel's SIMD body and its tail both count.
  constexpr int k = 6;
  constexpr int m = 2;
  constexpr std::size_t len = 10'925;
  const auto codec = make_codec(Scheme::reed_solomon, k, m);
  std::vector<std::vector<std::byte>> data;
  std::vector<const std::byte*> dptr;
  for (int j = 0; j < k; ++j) {
    data.push_back(chunk_bytes(300 + j, len));
    dptr.push_back(data.back().data());
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::byte> got(len);
    codec->encode(i, dptr.data(), len, got.data());
    std::vector<std::byte> want(len, std::byte{0});
    for (std::size_t b = 0; b < len; ++b) {
      std::uint8_t acc = 0;
      for (int j = 0; j < k; ++j) {
        acc ^= base::gf256::mul(
            base::gf256::cauchy(k, i, j),
            static_cast<std::uint8_t>(data[static_cast<std::size_t>(j)][b]));
      }
      want[b] = static_cast<std::byte>(acc);
    }
    ASSERT_EQ(got, want) << "parity " << i;
  }
}

TEST(Codec, MakeCodecValidatesShapeAndScheme) {
  EXPECT_EQ(make_codec(Scheme::partner, 4, 2), nullptr);
  EXPECT_NE(make_codec(Scheme::reed_solomon, 1, 1), nullptr);
  EXPECT_NE(make_codec(Scheme::reed_solomon, 200, 54), nullptr);
  EXPECT_THROW(make_codec(Scheme::reed_solomon, 0, 2), base::Error);
  EXPECT_THROW(make_codec(Scheme::reed_solomon, 4, -1), base::Error);
  EXPECT_THROW(make_codec(Scheme::reed_solomon, 200, 55), base::Error);
}

}  // namespace
}  // namespace sessmpi::ckpt
