// GF(2^8) field arithmetic backing the checkpoint erasure codecs: field
// axioms over exhaustive element pairs, inverse round-trips, and the
// Cauchy-submatrix invertibility the MDS recovery guarantee rests on.

#include "sessmpi/base/gf256.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sessmpi::base::gf256 {
namespace {

TEST(Gf256, MultiplicationIsCommutativeWithZeroAndOneLaws) {
  for (int a = 0; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(ua, 0), 0);
    EXPECT_EQ(mul(0, ua), 0);
    EXPECT_EQ(mul(ua, 1), ua);
    EXPECT_EQ(mul(1, ua), ua);
    for (int b = 0; b < 256; ++b) {
      const auto ub = static_cast<std::uint8_t>(b);
      ASSERT_EQ(mul(ua, ub), mul(ub, ua));
    }
  }
}

TEST(Gf256, MultiplicationAssociatesAndDistributesOverXor) {
  // Exhaustive triples would be 2^24 products; coprime strides still visit
  // every element in each position while keeping the test instant.
  for (int a = 1; a < 256; a += 3) {
    for (int b = 1; b < 256; b += 5) {
      for (int c = 1; c < 256; c += 7) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        const auto uc = static_cast<std::uint8_t>(c);
        ASSERT_EQ(mul(mul(ua, ub), uc), mul(ua, mul(ub, uc)));
        ASSERT_EQ(mul(ua, static_cast<std::uint8_t>(ub ^ uc)),
                  static_cast<std::uint8_t>(mul(ua, ub) ^ mul(ua, uc)));
      }
    }
  }
}

TEST(Gf256, EveryNonzeroElementHasAnInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    const std::uint8_t ia = inv(ua);
    EXPECT_NE(ia, 0);
    EXPECT_EQ(mul(ua, ia), 1) << "a=" << a;
    EXPECT_EQ(div(ua, ua), 1);
  }
  EXPECT_EQ(inv(0), 0);  // documented sentinel, never hit by the codec
}

TEST(Gf256, DivisionInvertsMultiplication) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      const auto ua = static_cast<std::uint8_t>(a);
      const auto ub = static_cast<std::uint8_t>(b);
      ASSERT_EQ(div(mul(ua, ub), ub), ua);
    }
  }
}

/// Determinant over GF(2^8) by Gaussian elimination (char 2: row swaps do
/// not flip the sign).
std::uint8_t det(std::vector<std::vector<std::uint8_t>> a) {
  const std::size_t n = a.size();
  std::uint8_t d = 1;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    while (piv < n && a[piv][col] == 0) {
      ++piv;
    }
    if (piv == n) {
      return 0;
    }
    std::swap(a[piv], a[col]);
    d = mul(d, a[col][col]);
    const std::uint8_t pivinv = inv(a[col][col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      if (a[r][col] == 0) {
        continue;
      }
      const std::uint8_t f = mul(a[r][col], pivinv);
      for (std::size_t c = col; c < n; ++c) {
        a[r][c] = static_cast<std::uint8_t>(a[r][c] ^ mul(f, a[col][c]));
      }
    }
  }
  return d;
}

TEST(Gf256, EverySquareCauchySubmatrixIsInvertible) {
  // The MDS property in matrix form: recovering e lost data chunks inverts
  // an e x e submatrix of the Cauchy parity matrix, so every such submatrix
  // must be nonsingular. Check all of them (up to 3x3) for the set shapes
  // the checkpoint layer configures.
  for (const auto& [k, m] :
       std::vector<std::pair<int, int>>{{4, 2}, {8, 2}, {4, 3}}) {
    for (int i0 = 0; i0 < m; ++i0) {
      for (int j0 = 0; j0 < k; ++j0) {
        EXPECT_NE(cauchy(k, i0, j0), 0);
        for (int i1 = i0 + 1; i1 < m; ++i1) {
          for (int j1 = j0 + 1; j1 < k; ++j1) {
            EXPECT_NE(det({{cauchy(k, i0, j0), cauchy(k, i0, j1)},
                           {cauchy(k, i1, j0), cauchy(k, i1, j1)}}),
                      0);
          }
        }
      }
    }
    if (m >= 3) {
      for (int j0 = 0; j0 < k; ++j0) {
        for (int j1 = j0 + 1; j1 < k; ++j1) {
          for (int j2 = j1 + 1; j2 < k; ++j2) {
            std::vector<std::vector<std::uint8_t>> a(
                3, std::vector<std::uint8_t>(3));
            for (int i = 0; i < 3; ++i) {
              a[static_cast<std::size_t>(i)] = {cauchy(k, i, j0),
                                                cauchy(k, i, j1),
                                                cauchy(k, i, j2)};
            }
            EXPECT_NE(det(a), 0);
          }
        }
      }
    }
  }
}

TEST(Gf256, MulAddMatchesScalarReference) {
  // Every coefficient, every length from 0 through four 16-byte SIMD
  // blocks plus each possible tail, at every src and dst offset within a
  // 16-byte block: the dispatched kernel (SIMD where the CPU has it) and
  // the portable loop must both equal a per-byte mul(), and neither may
  // touch a byte outside dst[0..len).
  constexpr std::size_t kMaxLen = 67;
  constexpr std::size_t kOffsets = 16;
  using Buf = std::array<std::byte, kMaxLen + kOffsets>;
  Buf src{};
  Buf dst0{};
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(37 * i + 11);
    dst0[i] = static_cast<std::byte>(5 * i + 3);
  }
  using Kernel = void (*)(std::byte*, const std::byte*, std::size_t,
                          std::uint8_t) noexcept;
  const std::pair<const char*, Kernel> kernels[] = {
      {"mul_add", &mul_add}, {"mul_add_portable", &mul_add_portable}};
  for (int c = 0; c < 256; ++c) {
    const auto coef = static_cast<std::uint8_t>(c);
    std::array<std::uint8_t, 256> product{};
    for (int b = 0; b < 256; ++b) {
      product[static_cast<std::size_t>(b)] =
          mul(coef, static_cast<std::uint8_t>(b));
    }
    for (std::size_t so = 0; so < kOffsets; ++so) {
      for (std::size_t doff = 0; doff < kOffsets; ++doff) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
          Buf want = dst0;
          for (std::size_t i = 0; i < len; ++i) {
            want[doff + i] ^= static_cast<std::byte>(
                product[static_cast<std::uint8_t>(src[so + i])]);
          }
          for (const auto& [name, kernel] : kernels) {
            Buf dst = dst0;
            kernel(dst.data() + doff, src.data() + so, len, coef);
            ASSERT_EQ(dst, want) << name << " coef=" << c << " len=" << len
                                 << " src_off=" << so << " dst_off=" << doff;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sessmpi::base::gf256
