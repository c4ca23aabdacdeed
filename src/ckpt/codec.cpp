// Redundancy-set erasure codec over GF(2^8) (see
// include/sessmpi/ckpt/codec.hpp for the stripe layout): a systematic
// Cauchy Reed-Solomon code (see base/gf256.hpp), parity i of a stripe is
//
//   p_i = sum_j cauchy(k, i, j) * d_j
//
// and reconstruction solves the e x e linear system the surviving parities
// impose on the e missing data chunks by Gaussian elimination over the
// field — any e <= m losses per stripe are recoverable because every
// square Cauchy submatrix is invertible. m = 1 is the RAID-5 shape: one
// parity chunk per stripe, any single loss recovered.

#include <algorithm>
#include <vector>

#include "sessmpi/base/error.hpp"
#include "sessmpi/base/gf256.hpp"
#include "sessmpi/ckpt/codec.hpp"

namespace sessmpi::ckpt {

SetLayout set_layout(int n, int comm_rank, int k, int m) {
  if (k < 1 || m < 0) {
    throw Error(ErrClass::arg, "ckpt: redundancy set needs k >= 1, m >= 0");
  }
  const int g = k + m;
  SetLayout s;
  s.first = (comm_rank / g) * g;
  s.size = std::min(g, n - s.first);
  // Tail set: keep as many parities as the membership supports.
  s.parity = std::min(m, s.size - 1);
  s.data = s.size - s.parity;
  return s;
}

namespace gf = base::gf256;

void SetCodec::encode(int pi, const std::byte* const* data, std::size_t len,
                      std::byte* out) const {
  std::fill(out, out + len, std::byte{0});
  for (int j = 0; j < k(); ++j) {
    gf::mul_add(out, data[j], len, gf::cauchy(k(), pi, j));
  }
}

bool SetCodec::reconstruct(std::byte* const* data, const bool* data_ok,
                           const std::byte* const* parity,
                           std::size_t len) const {
  std::vector<int> missing;
  for (int j = 0; j < k(); ++j) {
    if (!data_ok[j]) {
      missing.push_back(j);
    }
  }
  if (missing.empty()) {
    return true;
  }
  std::vector<int> rows;  // surviving parity indices, first e of them
  for (int i = 0; i < m() && rows.size() < missing.size(); ++i) {
    if (parity[i] != nullptr) {
      rows.push_back(i);
    }
  }
  const std::size_t e = missing.size();
  if (rows.size() < e) {
    return false;
  }

  // rhs_r = p_{rows[r]} - sum_{j survives} C[rows[r]][j] * d_j; the
  // system A * x = rhs with A[r][c] = C[rows[r]][missing[c]] then yields
  // the missing chunks x.
  std::vector<std::vector<std::byte>> rhs(e, std::vector<std::byte>(len));
  std::vector<std::uint8_t> a(e * e);
  for (std::size_t r = 0; r < e; ++r) {
    std::copy(parity[rows[r]], parity[rows[r]] + len, rhs[r].data());
    for (int j = 0; j < k(); ++j) {
      if (data_ok[j]) {
        gf::mul_add(rhs[r].data(), data[j], len,
                    gf::cauchy(k(), rows[r], j));
      }
    }
    for (std::size_t c = 0; c < e; ++c) {
      a[r * e + c] = gf::cauchy(k(), rows[r], missing[c]);
    }
  }

  // Gaussian elimination to identity, mirroring every row op onto rhs.
  std::vector<std::byte> scaled(len);
  for (std::size_t col = 0; col < e; ++col) {
    std::size_t pivot = col;
    while (pivot < e && a[pivot * e + col] == 0) {
      ++pivot;
    }
    if (pivot == e) {
      return false;  // unreachable for a Cauchy system; belt-and-braces
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < e; ++c) {
        std::swap(a[pivot * e + c], a[col * e + c]);
      }
      rhs[pivot].swap(rhs[col]);
    }
    const std::uint8_t pinv = gf::inv(a[col * e + col]);
    for (std::size_t c = 0; c < e; ++c) {
      a[col * e + c] = gf::mul(a[col * e + c], pinv);
    }
    // Scale the pivot row through the bulk kernel: accumulate into a
    // zeroed scratch row, then swap it in.
    std::fill(scaled.begin(), scaled.end(), std::byte{0});
    gf::mul_add(scaled.data(), rhs[col].data(), len, pinv);
    rhs[col].swap(scaled);
    for (std::size_t r = 0; r < e; ++r) {
      if (r == col || a[r * e + col] == 0) {
        continue;
      }
      const std::uint8_t f = a[r * e + col];
      for (std::size_t c = 0; c < e; ++c) {
        a[r * e + c] ^= gf::mul(f, a[col * e + c]);
      }
      gf::mul_add(rhs[r].data(), rhs[col].data(), len, f);
    }
  }
  for (std::size_t c = 0; c < e; ++c) {
    std::copy(rhs[c].begin(), rhs[c].end(), data[missing[c]]);
  }
  return true;
}

std::unique_ptr<SetCodec> make_codec(Scheme scheme, int k, int m) {
  if (k < 1 || m < 0 || k + m > 254) {
    throw Error(ErrClass::arg,
                "ckpt: invalid redundancy set (need k >= 1, m >= 0, "
                "k + m <= 254)");
  }
  switch (scheme) {
    case Scheme::partner:
      return nullptr;
    case Scheme::reed_solomon:
      return std::make_unique<SetCodec>(k, m);
  }
  throw Error(ErrClass::arg, "ckpt: unknown redundancy scheme");
}

}  // namespace sessmpi::ckpt
