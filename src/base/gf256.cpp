// GF(2^8) multiply-accumulate kernel (see include/sessmpi/base/gf256.hpp).
//
// Multiplication by a fixed coef distributes over XOR, so splitting each
// source byte into nibbles gives
//
//   coef * s = coef * (s & 0x0f) ^ coef * (s & 0xf0)
//            = lo[s & 15]        ^ hi[s >> 4]
//
// with two 16-entry product tables per coefficient. Sixteen entries is
// exactly one SSSE3 `pshufb` table, so on x86-64 one shuffle per nibble
// multiplies 16 bytes at once. The portable loop expands the same two
// tables into the coefficient's 256-entry product row (256 XORs) and then
// does one lookup per byte. The tables are built from mul(), so every
// path yields the bytes the log/exp definition does.

#include "sessmpi/base/gf256.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SESSMPI_GF256_SSSE3 1
#include <immintrin.h>
#endif

namespace sessmpi::base::gf256 {

namespace {

struct SplitTables {
  alignas(16) std::array<std::uint8_t, 16> lo{};
  alignas(16) std::array<std::uint8_t, 16> hi{};

  [[nodiscard]] std::uint8_t times(std::uint8_t s) const noexcept {
    return static_cast<std::uint8_t>(lo[s & 0x0f] ^ hi[s >> 4]);
  }
};

SplitTables split_tables(std::uint8_t coef) noexcept {
  SplitTables t;
  for (unsigned n = 0; n < 16; ++n) {
    t.lo[n] = mul(coef, static_cast<std::uint8_t>(n));
    t.hi[n] = mul(coef, static_cast<std::uint8_t>(n << 4));
  }
  return t;
}

#ifdef SESSMPI_GF256_SSSE3

__attribute__((target("ssse3"))) void ssse3_loop(
    std::byte* dst, const std::byte* src, std::size_t len,
    const SplitTables& t) noexcept {
  const __m128i lo =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo.data()));
  const __m128i hi =
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi.data()));
  const __m128i nibble = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i p = _mm_xor_si128(
        _mm_shuffle_epi8(lo, _mm_and_si128(s, nibble)),
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), nibble)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, p));
  }
  for (; i < len; ++i) {
    dst[i] ^=
        static_cast<std::byte>(t.times(static_cast<std::uint8_t>(src[i])));
  }
}

bool have_ssse3() noexcept {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("ssse3") != 0;
  }();
  return yes;
}

#endif  // SESSMPI_GF256_SSSE3

}  // namespace

void mul_add_portable(std::byte* dst, const std::byte* src, std::size_t len,
                      std::uint8_t coef) noexcept {
  if (coef == 0) {
    return;
  }
  const SplitTables t = split_tables(coef);
  std::array<std::uint8_t, 256> row;
  for (unsigned s = 0; s < 256; ++s) {
    row[s] = t.times(static_cast<std::uint8_t>(s));
  }
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] ^= static_cast<std::byte>(row[static_cast<std::uint8_t>(src[i])]);
  }
}

void mul_add(std::byte* dst, const std::byte* src, std::size_t len,
             std::uint8_t coef) noexcept {
#ifdef SESSMPI_GF256_SSSE3
  if (coef != 0 && have_ssse3()) {
    ssse3_loop(dst, src, len, split_tables(coef));
    return;
  }
#endif
  mul_add_portable(dst, src, len, coef);
}

}  // namespace sessmpi::base::gf256
