#pragma once

// SCR-style multilevel checkpoint/restart on top of the fault-tolerance
// layer (src/ft) and the Sessions pset machinery.
//
// Applications register named datasets (a pointer + byte count per rank);
// `save(comm)` then takes a *coordinated* in-memory checkpoint:
//
//   1. snapshot every registered dataset into a staging epoch,
//   2. add redundancy, per Config::scheme:
//        partner       — exchange the serialized snapshot with a partner
//                        rank: r sends to (r+offset) mod n and holds a
//                        redundant copy for (r-offset) mod n (SCR PARTNER);
//        reed_solomon  — SCR redundancy sets: ranks are grouped into sets
//                        of (set_data + set_parity) members, each member's
//                        blob is split into k chunks and the set computes
//                        rotated parity stripes (codec.hpp), so any <= m
//                        simultaneous deaths per set restore bitwise from
//                        parity at m/k of partner-copy's redundancy bytes,
//   3. fence the *previous* epoch's async filesystem drain, then commit
//      this epoch through an agree()-backed vote: each rank contributes ~0
//      on success or ~1 on any local failure; bit 0 of the AND decides
//      commit/abort *uniformly* across survivors — so a committed epoch N
//      implies epoch N-1 is FS-durable (or known-failed) everywhere,
//   4. publish the committed epoch through PMIx (`ckpt.<name>.epoch`) and
//      (optionally) spill the snapshot to the shared SimFs — SCR's
//      filesystem level, the copy of last resort. The spill is
//      *enqueued* on a background drainer that overlaps compute:
//      chunked fault-injectable writes with exponential-backoff retries, a
//      trailing ".ok" durability marker written only after the final byte,
//      and a sticky first-failure cause. A rank that dies mid-drain leaves
//      no ".ok", so restore falls back to the previous durable epoch.
//
// A revocation of the communicator mid-save invalidates the in-flight
// epoch (via Communicator::on_revoke) and the save completes with
// Error(comm_revoked) on every rank, previous epochs intact.
//
// After failures the application shrinks and calls `restore(new_comm)`:
// survivors propose the newest epoch everyone committed (allreduce-min),
// then walk candidates downward until one passes a uniform allreduce-max
// recoverability vote. Survivors reload their own datasets bitwise and
// *adopt* the shards of dead members — decoded from set parity when the
// set lost <= m members (counter ckpt.parity_rebuilds), from the partner
// copy under the partner scheme (ckpt.partner_rebuilds), else from a
// durable (".ok"-marked) filesystem spill (ckpt.fs_rebuilds). A shard
// with no surviving copy in any candidate epoch fails the restore
// uniformly on every rank.
//
// Counters (base::counters()): ckpt.saves, ckpt.aborted_saves,
// ckpt.save_bytes, ckpt.redundancy_bytes, ckpt.restores,
// ckpt.restore_bytes, ckpt.partner_rebuilds, ckpt.parity_rebuilds,
// ckpt.fs_rebuilds, ckpt.spills, ckpt.spill_retries, ckpt.drain_failures.
// Histograms (obs::histogram): ckpt.encode_ns, ckpt.drain_ns.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sessmpi/base/topology.hpp"
#include "sessmpi/ckpt/codec.hpp"
#include "sessmpi/comm.hpp"

namespace sessmpi::prte {
class SimFs;
}

namespace sessmpi::ckpt {

struct Config {
  /// Redundancy scheme for the in-memory level (codec.hpp). partner uses
  /// partner_copy/partner_offset below; the erasure schemes use
  /// set_data/set_parity.
  Scheme scheme = Scheme::partner;
  /// Keep a redundant copy of each rank's snapshot on a partner rank
  /// (partner scheme only).
  bool partner_copy = true;
  /// Partner distance: rank r's copy lives on (r + partner_offset) mod n.
  /// Use >= procs-per-node to survive whole-node failures. An offset that
  /// is == 0 mod n would silently self-partner (no redundancy at all), so
  /// save() rejects it with Error(arg); use set_partner_offset() after a
  /// shrink changes n.
  int partner_offset = 1;
  /// Erasure-set shape: k data + m parity members per set. Any <= m
  /// simultaneous failures within one set restore from parity. Constraint
  /// beyond the codec's: k + m <= 31 (the restore exchange's tag budget).
  int set_data = 4;
  int set_parity = 2;
  /// Also write each rank's snapshot to the shared SimFs (slowest, most
  /// durable level — survives every in-memory copy dying at once). The
  /// spill goes through the background drain pipeline: it overlaps
  /// compute, and the next save's commit vote fences it.
  bool spill_to_fs = false;
  /// SimFs path prefix for spilled snapshots.
  std::string fs_prefix = "/ckpt/";
  /// Committed epochs retained in memory (older ones are pruned).
  std::size_t keep_epochs = 2;
  /// Drain pipeline write granularity (per try_write call).
  std::size_t spill_chunk_bytes = 64 * 1024;
  /// Transient-fault retries per chunk before the drain fails sticky.
  int spill_max_retries = 16;
};

/// A dataset shard recovered on behalf of a dead member.
struct Shard {
  base::Rank owner = -1;   ///< global rank that saved the shard
  std::string dataset;     ///< registered dataset name
  std::vector<std::byte> bytes;
};

struct RestoreResult {
  std::uint64_t epoch = 0;      ///< epoch everyone restored from
  std::vector<Shard> adopted;   ///< shards this rank now holds for the dead
  int from_fs = 0;              ///< adopted shards that came from the spill
  int from_parity = 0;          ///< adopted shards decoded from set parity
};

/// Per-rank checkpoint manager. One instance per rank, persisting across
/// communicator shrinks (the epochs live here, not on the communicator).
/// Not thread-safe: drive it from the owning rank thread (the background
/// drainer synchronizes internally).
class Checkpointer {
 public:
  /// `name` namespaces the PMIx keys and SimFs paths of this checkpoint
  /// set; every participating rank must use the same name and config.
  /// Throws Error(arg) on an invalid erasure-set shape.
  explicit Checkpointer(std::string name, Config cfg = {});

  /// Cancels any in-flight drain (a cooperatively dying rank leaves its
  /// current spill without a ".ok" marker — not durable) and joins the
  /// drainer thread.
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Register (or re-point) a named dataset: `bytes` bytes at `data`,
  /// snapshotted on save and overwritten on restore. The pointer must stay
  /// valid across save/restore calls.
  void register_dataset(const std::string& dataset, void* data,
                        std::size_t bytes);

  /// Coordinated checkpoint over `comm` (collective). Returns the committed
  /// epoch number. Throws Error(comm_revoked) if the communicator is (or
  /// becomes) revoked mid-save, Error(rte_proc_failed) if a member failure
  /// aborts the vote, Error(arg) if partner_offset self-partners on this
  /// communicator size; previous epochs are untouched either way.
  std::uint64_t save(const Communicator& comm);

  /// Collective restore over the (post-shrink) communicator: reload own
  /// datasets from the newest commonly-recoverable epoch and adopt dead
  /// members' shards. Throws Error(arg) when no epoch was ever committed
  /// and Error(rte_not_found) when no candidate epoch is recoverable —
  /// uniformly on every rank.
  RestoreResult restore(const Communicator& comm);

  /// Adjust the partner distance after a shrink changes the communicator
  /// size (epochs already saved keep the offset they were saved with).
  void set_partner_offset(int offset) noexcept { cfg_.partner_offset = offset; }

  /// Time-based cadence helper: true when the `ckpt.interval.*` cvars say
  /// a save is due at `now_ns` (always true when no interval is
  /// configured). Arms the next deadline when it fires.
  [[nodiscard]] bool should_save(std::int64_t now_ns);

  /// Block until every enqueued async spill reaches a terminal state
  /// (durable / failed). Returns true when all pending drains became
  /// durable. save() calls this before the commit vote; call it directly
  /// before a planned death to make the latest epoch FS-durable.
  bool drain_fence();

  /// Sticky first cause of the first failed drain ("" = none yet).
  [[nodiscard]] std::string drain_error() const;

  /// Cumulative ns the drainer spent writing / save() spent blocked in the
  /// pre-vote fence — the bench's overlap metric is 1 - fence/busy.
  [[nodiscard]] std::uint64_t drain_busy_ns() const;
  [[nodiscard]] std::uint64_t drain_fence_wait_ns() const;

  /// Newest epoch this rank committed (0 = none yet).
  [[nodiscard]] std::uint64_t last_committed() const noexcept {
    return last_committed_;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  struct Dataset {
    void* data = nullptr;
    std::size_t bytes = 0;
  };
  /// This rank's slice of the save-time erasure-set state: enough to
  /// recompute every transfer/decode deterministically at restore.
  struct SetState {
    SetLayout layout;
    std::uint64_t chunk_len = 0;
    /// Serialized-blob size per set member (member index order).
    std::vector<std::uint64_t> blob_sizes;
    /// Parity chunks this rank holds, keyed by stripe.
    std::map<int, std::vector<std::byte>> parity;
  };
  /// One committed (or staging) checkpoint generation.
  struct Epoch {
    /// My datasets, snapshotted. Keyed by dataset name.
    std::map<std::string, std::vector<std::byte>> own;
    /// Partner copies held for other ranks, keyed by owner global rank:
    /// serialized snapshot blobs (decoded on demand at restore).
    std::map<base::Rank, std::vector<std::byte>> partner;
    /// Global ranks of the communicator at save time, by comm rank.
    std::vector<base::Rank> members;
    /// Redundancy parameters *as saved* — restore follows these, not the
    /// current config, so a reconfiguration between epochs stays safe.
    Scheme scheme = Scheme::partner;
    int partner_off = 0;
    /// Configured set shape at save time (every rank can recompute any
    /// set's layout from these; `set` below only covers this rank's set).
    int set_k = 0;
    int set_m = 0;
    SetState set;
  };
  /// One queued/in-flight async spill.
  struct DrainJob {
    std::uint64_t epoch = 0;
    std::string path;
    std::vector<std::byte> blob;
    enum class State { staged, draining, durable, failed, cancelled };
    State state = State::staged;
    std::int32_t track = -1;  ///< rank track for span attribution
  };

  [[nodiscard]] std::string fs_path(std::uint64_t epoch,
                                    base::Rank owner) const;
  void spill_async(prte::SimFs& fs, std::uint64_t epoch,
                   std::vector<std::byte> blob, base::Rank my_global);
  void drain_loop();
  DrainJob::State drain_one(const DrainJob& job, std::string& cause);
  void remove_spill(prte::SimFs& fs, std::uint64_t epoch,
                    base::Rank my_global);

  std::string name_;
  Config cfg_;
  std::map<std::string, Dataset> datasets_;  // registration order irrelevant
  std::map<std::uint64_t, Epoch> epochs_;
  std::uint64_t last_committed_ = 0;
  std::int64_t next_due_ns_ = -1;  ///< should_save() deadline (-1 = unarmed)

  // --- async drain pipeline (drainer thread <-> rank thread) ---
  mutable std::mutex dmu_;
  std::condition_variable dcv_;
  std::deque<std::shared_ptr<DrainJob>> dqueue_;
  std::vector<std::shared_ptr<DrainJob>> dlive_;  ///< staged + draining
  bool drain_stop_ = false;
  std::string drain_first_cause_;
  std::uint64_t drain_busy_ns_ = 0;
  std::uint64_t drain_fence_wait_ns_ = 0;
  prte::SimFs* drain_fs_ = nullptr;  ///< captured at first async spill
  std::thread drainer_;
};

/// Serialize `{name -> bytes}` into one blob (length-prefixed entries).
std::vector<std::byte> encode_snapshot(
    const std::map<std::string, std::vector<std::byte>>& datasets);
/// Inverse of encode_snapshot. Throws Error(truncate) on a malformed blob.
/// Trailing bytes beyond the last entry (erasure-chunk padding) are
/// ignored.
std::map<std::string, std::vector<std::byte>> decode_snapshot(
    const std::vector<std::byte>& blob);

}  // namespace sessmpi::ckpt
