#pragma once

// Redundancy-set erasure codec for src/ckpt (SCR-style redundancy sets).
//
// Ranks of the saving communicator are partitioned into consecutive sets
// of g = k + m members. Within a set, each member's serialized snapshot
// blob is padded to k equal chunks, and the set's chunks are arranged into
// g rotated stripes of k data chunks + m parity chunks — one chunk per
// member per stripe (the RAID-5 rotation, generalized):
//
//   stripe s: data chunk j   lives on member (s + j) mod g      (j < k)
//             parity chunk i lives on member (s + k + i) mod g  (i < m)
//
// Member r therefore contributes its own chunk j to stripe (r - j) mod g
// and stores m parity chunks of ~blob/k bytes each — redundancy cost m/k
// of a full partner copy. Losing any <= m members loses at most m chunks
// per stripe, which an MDS code recovers from the survivors: a systematic
// Cauchy Reed-Solomon code over GF(2^8) (see base/gf256.hpp), whose m = 1
// instance is the RAID-5 shape.
//
// Tail sets smaller than k + m degrade gracefully: a set of g' members
// uses m' = min(m, g' - 1) parities over k' = g' - m' data chunks (a
// 2-member RS set is plain duplication; a 1-member set has no redundancy).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sessmpi::ckpt {

/// Redundancy scheme for the in-memory (level-2) checkpoint copies.
enum class Scheme {
  partner,       ///< full copy on (r + offset) mod n — SCR PARTNER
  reed_solomon,  ///< rotated Reed-Solomon sets: any <= m failures per set
};

/// Half-open run [begin, end) of one member's chunk indices.
struct ChunkRun {
  int begin = 0;
  int end = 0;

  [[nodiscard]] int size() const noexcept { return end - begin; }
};

/// One redundancy set: `size` consecutive comm ranks starting at `first`,
/// striped as `data` + `parity` chunks (data + parity == size).
struct SetLayout {
  int first = 0;
  int size = 0;
  int data = 0;
  int parity = 0;

  [[nodiscard]] int member_of(int comm_rank) const noexcept {
    return comm_rank - first;
  }
  /// Member index holding data chunk j of stripe s.
  [[nodiscard]] int data_member(int s, int j) const noexcept {
    return (s + j) % size;
  }
  /// Member index holding parity chunk i of stripe s.
  [[nodiscard]] int parity_member(int s, int i) const noexcept {
    return (s + data + i) % size;
  }
  /// Stripe that member `idx`'s own chunk j belongs to.
  [[nodiscard]] int stripe_of_chunk(int idx, int j) const noexcept {
    return (idx - j + size) % size;
  }
  /// Parity index member `idx` holds in stripe s, or -1 if it holds a data
  /// chunk there (every member holds exactly one chunk of every stripe).
  [[nodiscard]] int parity_index(int s, int idx) const noexcept {
    const int pos = (idx - s + size) % size;
    return pos >= data ? pos - data : -1;
  }
  /// The chunks of `member` that `holder` keeps parity for. With d =
  /// (holder - member) mod size, member's chunk j sits at stripe position
  /// (d + j) mod size, a parity position iff d + j lies in [data, size) —
  /// one consecutive run of j. It is empty for holder == member (a member
  /// holds data, never parity, in the stripes its own chunks feed), so the
  /// save exchange sends each holder one contiguous slice of the blob.
  [[nodiscard]] ChunkRun chunk_run(int member, int holder) const noexcept {
    const int d = (holder - member + size) % size;
    return {std::max(0, data - d), std::min(data, size - d)};
  }
};

/// The set containing `comm_rank` when `n` ranks are grouped into sets of
/// (k data + m parity). The tail set shrinks as documented above.
[[nodiscard]] SetLayout set_layout(int n, int comm_rank, int k, int m);

/// Stripe-level Reed-Solomon codec: k data chunks, m parity chunks, all
/// of one length. Stateless and thread-safe.
class SetCodec {
 public:
  SetCodec(int k, int m) : k_(k), m_(m) {}

  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int m() const noexcept { return m_; }

  /// Parity chunk `pi` of one stripe from its k data chunks.
  void encode(int pi, const std::byte* const* data, std::size_t len,
              std::byte* out) const;

  /// Reconstruct the missing data chunks of one stripe in place.
  /// `data[j]` are the k data chunk buffers; `data_ok[j]` marks which ones
  /// survived (missing ones are overwritten with the reconstruction).
  /// `parity[i]` is the i-th parity chunk or nullptr if lost. Returns
  /// false when more data chunks are missing than parity chunks survive
  /// (beyond the code's tolerance) — nothing is written in that case.
  bool reconstruct(std::byte* const* data, const bool* data_ok,
                   const std::byte* const* parity, std::size_t len) const;

 private:
  int k_;
  int m_;
};

/// Codec for `scheme` (partner has no codec and returns nullptr). Throws
/// Error(arg) on invalid (k, m): k < 1, m < 0, or k + m > 254 (the Cauchy
/// evaluation-point budget in GF(2^8)).
std::unique_ptr<SetCodec> make_codec(Scheme scheme, int k, int m);

}  // namespace sessmpi::ckpt
