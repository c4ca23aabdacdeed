// Erasure-codec unit tests: redundancy-set layout partition properties,
// XOR (RAID-5) and Reed-Solomon stripe round-trips under every loss
// pattern the code tolerates, over-tolerance rejection, and parameter
// validation. Pure arithmetic — no simulated cluster involved.

#include "sessmpi/ckpt/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
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

TEST(Codec, XorRoundTripsAnySingleDataLoss) {
  constexpr int k = 4;
  constexpr std::size_t len = 33;
  const auto codec = make_codec(Scheme::xor_parity, k, 1);
  ASSERT_NE(codec, nullptr);
  EXPECT_EQ(codec->k(), k);
  EXPECT_EQ(codec->m(), 1);

  std::vector<std::vector<std::byte>> data;
  std::vector<const std::byte*> dptr;
  for (int j = 0; j < k; ++j) {
    data.push_back(chunk_bytes(j, len));
    dptr.push_back(data.back().data());
  }
  std::vector<std::byte> parity(len);
  codec->encode(0, dptr.data(), len, parity.data());

  for (int lost = 0; lost < k; ++lost) {
    auto work = data;
    std::fill(work[static_cast<std::size_t>(lost)].begin(),
              work[static_cast<std::size_t>(lost)].end(), std::byte{0});
    std::vector<std::byte*> wptr;
    bool ok[k];
    for (int j = 0; j < k; ++j) {
      wptr.push_back(work[static_cast<std::size_t>(j)].data());
      ok[j] = j != lost;
    }
    const std::byte* pptr[1] = {parity.data()};
    ASSERT_TRUE(codec->reconstruct(wptr.data(), ok, pptr, len));
    EXPECT_EQ(work[static_cast<std::size_t>(lost)],
              data[static_cast<std::size_t>(lost)]);
  }

  // Losing only the parity chunk costs nothing: all data survived.
  {
    auto work = data;
    std::vector<std::byte*> wptr;
    bool ok[k];
    for (int j = 0; j < k; ++j) {
      wptr.push_back(work[static_cast<std::size_t>(j)].data());
      ok[j] = true;
    }
    const std::byte* pptr[1] = {nullptr};
    EXPECT_TRUE(codec->reconstruct(wptr.data(), ok, pptr, len));
  }

  // A data chunk and the parity lost together exceed m = 1: refused.
  {
    auto work = data;
    std::vector<std::byte*> wptr;
    bool ok[k];
    for (int j = 0; j < k; ++j) {
      wptr.push_back(work[static_cast<std::size_t>(j)].data());
      ok[j] = j != 0;
    }
    const std::byte* pptr[1] = {nullptr};
    EXPECT_FALSE(codec->reconstruct(wptr.data(), ok, pptr, len));
  }
}

TEST(Codec, ReedSolomonRoundTripsEveryLossPatternUpToM) {
  constexpr int k = 4;
  constexpr int m = 2;
  constexpr std::size_t len = 29;
  const auto codec = make_codec(Scheme::reed_solomon, k, m);
  ASSERT_NE(codec, nullptr);

  std::vector<std::vector<std::byte>> data;
  std::vector<const std::byte*> dptr;
  for (int j = 0; j < k; ++j) {
    data.push_back(chunk_bytes(100 + j, len));
    dptr.push_back(data.back().data());
  }
  std::vector<std::vector<std::byte>> parity(m, std::vector<std::byte>(len));
  for (int i = 0; i < m; ++i) {
    codec->encode(i, dptr.data(), len, parity[static_cast<std::size_t>(i)].data());
  }

  // Every subset of <= m lost chunks across the k + m stripe positions
  // (positions 0..k-1 = data, k..k+m-1 = parity) must round-trip bitwise.
  for (unsigned mask = 0; mask < (1u << (k + m)); ++mask) {
    if (std::popcount(mask) > m) {
      continue;
    }
    auto work = data;
    std::vector<std::byte*> wptr;
    bool ok[k];
    for (int j = 0; j < k; ++j) {
      ok[j] = (mask & (1u << j)) == 0;
      if (!ok[j]) {
        std::fill(work[static_cast<std::size_t>(j)].begin(),
                  work[static_cast<std::size_t>(j)].end(), std::byte{0});
      }
      wptr.push_back(work[static_cast<std::size_t>(j)].data());
    }
    const std::byte* pptr[m];
    for (int i = 0; i < m; ++i) {
      pptr[i] = (mask & (1u << (k + i))) != 0
                    ? nullptr
                    : parity[static_cast<std::size_t>(i)].data();
    }
    ASSERT_TRUE(codec->reconstruct(wptr.data(), ok, pptr, len))
        << "mask=" << mask;
    for (int j = 0; j < k; ++j) {
      ASSERT_EQ(work[static_cast<std::size_t>(j)],
                data[static_cast<std::size_t>(j)])
          << "mask=" << mask << " chunk=" << j;
    }
  }

  // Beyond tolerance: any pattern where more data chunks are missing than
  // parity chunks survive is refused without touching the buffers.
  for (const unsigned mask : {0b000111u, 0b110011u, 0b010111u}) {
    ASSERT_GT(std::popcount(mask), m);
    auto work = data;
    std::vector<std::byte*> wptr;
    bool ok[k];
    for (int j = 0; j < k; ++j) {
      ok[j] = (mask & (1u << j)) == 0;
      if (!ok[j]) {
        std::fill(work[static_cast<std::size_t>(j)].begin(),
                  work[static_cast<std::size_t>(j)].end(), std::byte{0});
      }
      wptr.push_back(work[static_cast<std::size_t>(j)].data());
    }
    const std::byte* pptr[m];
    for (int i = 0; i < m; ++i) {
      pptr[i] = (mask & (1u << (k + i))) != 0
                    ? nullptr
                    : parity[static_cast<std::size_t>(i)].data();
    }
    EXPECT_FALSE(codec->reconstruct(wptr.data(), ok, pptr, len))
        << "mask=" << mask;
    for (int j = 0; j < k; ++j) {
      if (!ok[j]) {
        EXPECT_EQ(work[static_cast<std::size_t>(j)],
                  std::vector<std::byte>(len, std::byte{0}));
      }
    }
  }
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

TEST(Codec, ReedSolomonWithSingleParityMatchesXor) {
  // RS with m = 1 uses Cauchy coefficients inv((1+0)^j) that are not all 1,
  // but the recovery guarantee is the same as XOR's; both must round-trip
  // the same stripe. This pins the two codecs to one contract.
  constexpr int k = 3;
  constexpr std::size_t len = 17;
  const auto xorc = make_codec(Scheme::xor_parity, k, 1);
  const auto rsc = make_codec(Scheme::reed_solomon, k, 1);
  std::vector<std::vector<std::byte>> data;
  std::vector<const std::byte*> dptr;
  for (int j = 0; j < k; ++j) {
    data.push_back(chunk_bytes(200 + j, len));
    dptr.push_back(data.back().data());
  }
  for (const auto* codec : {xorc.get(), rsc.get()}) {
    std::vector<std::byte> parity(len);
    codec->encode(0, dptr.data(), len, parity.data());
    auto work = data;
    std::fill(work[1].begin(), work[1].end(), std::byte{0});
    std::vector<std::byte*> wptr;
    bool ok[k] = {true, false, true};
    for (auto& w : work) {
      wptr.push_back(w.data());
    }
    const std::byte* pptr[1] = {parity.data()};
    ASSERT_TRUE(codec->reconstruct(wptr.data(), ok, pptr, len));
    EXPECT_EQ(work[1], data[1]);
  }
}

TEST(Codec, MakeCodecValidatesShapeAndScheme) {
  EXPECT_EQ(make_codec(Scheme::partner, 4, 2), nullptr);
  EXPECT_NE(make_codec(Scheme::xor_parity, 1, 1), nullptr);
  EXPECT_NE(make_codec(Scheme::reed_solomon, 200, 54), nullptr);
  EXPECT_THROW(make_codec(Scheme::reed_solomon, 0, 2), base::Error);
  EXPECT_THROW(make_codec(Scheme::reed_solomon, 4, -1), base::Error);
  EXPECT_THROW(make_codec(Scheme::reed_solomon, 200, 55), base::Error);
}

}  // namespace
}  // namespace sessmpi::ckpt
